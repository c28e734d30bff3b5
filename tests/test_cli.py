"""CLI behavior: exit codes, CSV layouts, reproducibility, invariant suites."""

import csv
import threading

import numpy as np
import pytest

from smc2 import validate
from smc2.cli import main, read_report_csv
from smc2.comms import spawn_group
from smc2.pf import PFConfig
from smc2.smc2 import SMC2Config, run_smc2
from smc2.ssm import SIRConfig, SIRModel, read_dataset, simulate_sir, write_dataset

SMALL = SIRConfig(n_pop=500, i0=2, n_steps=6)


def write_small_dataset(path, seed=11):
    dataset = simulate_sir(SMALL, (0.85, 0.2), seed=seed)
    write_dataset(str(path), dataset)
    return dataset


def data_lines(path):
    """File lines with the # comment header stripped."""
    with open(path) as fh:
        return [line.rstrip("\n") for line in fh if not line.startswith("#")]


class TestValidateSuites:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            validate.run_suite("nope")

    def test_cases_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            validate.run_suite("choice", cases=0)

    def test_fault_injection_limited_to_choice(self):
        with pytest.raises(ValueError, match="choice"):
            validate.run_suite("pf", inject_fault="negative")

    def test_all_suites_clean_at_reduced_size(self):
        for name in validate.SUITES:
            suite = validate.run_suite(name, cases=24, seed=0)
            assert suite.name == name
            assert suite.cases == 24
            assert suite.ok, suite.failures[:3]

    def test_case_count_contract(self):
        suite = validate.run_suite("redistribution", cases=37, seed=1)
        assert suite.cases == 37

    def test_choice_reference_invariants(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.choice([8, 16, 64]))
            w = rng.random(n) + 1e-3
            w /= w.sum()
            ncopies = validate.choice_reference(w, float(rng.random()))
            assert ncopies.sum() == n
            assert ncopies.min() >= 0
            assert ncopies.max() <= n

    def test_check_copy_counts_names_each_violation(self):
        assert validate.check_copy_counts(np.array([1, 1, 1, 1]), 4) == []
        deficit = validate.check_copy_counts(np.array([1, 1, 1, 0]), 4)
        assert any("must sum to N=4 (got 3)" in p for p in deficit)
        negative = validate.check_copy_counts(np.array([-1, 3, 1, 1]), 4)
        assert any("nonnegative" in p for p in negative)
        excess = validate.check_copy_counts(np.array([5, 0, 0, 0]), 4)
        assert any("not exceed N=4" in p for p in excess)

    def test_injected_sum_deficit_trips_choice_suite(self):
        suite = validate.run_suite("choice", cases=12, seed=3,
                                   inject_fault="sum_deficit")
        assert not suite.ok
        assert "copy counts must sum to N=8 (got 7)" in suite.failures[-1]

    def test_injected_negative_trips_choice_suite(self):
        suite = validate.run_suite("choice", cases=12, seed=3,
                                   inject_fault="negative")
        assert not suite.ok
        assert any("nonnegative" in f for f in suite.failures)

    def test_failures_carry_replay_coordinates(self):
        suite = validate.run_suite("choice", cases=12, seed=9,
                                   inject_fault="sum_deficit")
        assert "seed=9" in suite.failures[-1]
        assert "N=8" in suite.failures[-1]
        assert "P=1" in suite.failures[-1]


class TestUsageErrors:
    def test_empty_argv_prints_usage(self, capsys):
        assert main([]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self):
        for argv in (["smc2", "--wat", "1"],
                     ["smc2", "--model", "sir"],
                     ["pmcmc", "--p", "2"],
                     ["pmcmc", "--n", "4", "--k", "2", "--nx", "20",
                      "--lkernel", "optimal"]):
            assert main(argv) == 1, argv

    @pytest.mark.parametrize("argv", [
        ["smc2", "--nx", "1"],
        ["smc2", "--n", "1"],
        ["smc2", "--n", "4", "--p", "8"],
        ["smc2", "--sigma-scale", "0"],
        ["smc2", "--sigma-scale", "-0.1"],
        ["pmcmc", "--sigma-scale", "0"],
        ["pmcmc", "--nx", "1"],
        ["convergence", "--n", "4", "--p", "8", "--out", "unused"],
        ["benchmark", "--n", "4,8", "--p", "8", "--out", "unused"],
    ])
    def test_size_out_of_range(self, argv, capsys):
        assert main(argv) == 1
        assert "must" in capsys.readouterr().err

    def test_n_must_be_power_of_two(self, capsys):
        assert main(["smc2", "--n", "1023"]) == 1
        assert "power of two" in capsys.readouterr().err

    def test_p_must_be_power_of_two(self):
        assert main(["smc2", "--n", "8", "--k", "1", "--nx", "8", "--p", "3"]) == 1

    def test_benchmark_requires_out(self):
        assert main(["benchmark", "--n", "8", "--p", "1", "--k", "1",
                     "--nx", "8", "--repeats", "1"]) == 1

    def test_simulate_requires_out(self):
        assert main(["simulate"]) == 1

    def test_validate_rejects_zero_cases(self):
        assert main(["validate", "--suite", "choice", "--cases", "0"]) == 1

    def test_inject_fault_needs_choice_suite(self):
        assert main(["validate", "--suite", "pf",
                     "--inject-fault", "negative"]) == 1

    def test_pmcmc_chain_too_short(self):
        assert main(["pmcmc", "--n", "8", "--k", "1", "--nx", "8",
                     "--m", "1"]) == 1

    def test_missing_dataset_is_usage_error(self, tmp_path):
        assert main(["smc2", "--n", "8", "--k", "1", "--nx", "8",
                     "--data", str(tmp_path / "absent.csv")]) == 1


class TestSimulateCmd:
    def test_writes_paper_default_dataset(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["simulate", "--seed", "7", "--out", str(out)]) == 0
        assert "wrote 30 observations" in capsys.readouterr().out
        dataset = read_dataset(str(out))
        assert len(dataset.y) == 30
        np.testing.assert_allclose(dataset.theta_true, [0.85, 0.2])
        assert dataset.meta["n_pop"] == 10_000
        assert dataset.meta["i0"] == 3
        assert dataset.seed == 7


class TestSmc2Cmd:
    def test_writes_one_diagnostics_row_per_iteration(self, tmp_path):
        data = tmp_path / "data.csv"
        write_small_dataset(data)
        diag = tmp_path / "diag.csv"
        code = main(["smc2", "--n", "8", "--k", "3", "--nx", "16",
                     "--seed", "5", "--data", str(data), "--out", str(diag)])
        assert code == 0
        rows = data_lines(diag)
        assert rows[0].startswith("k,ess,l_k,resampled,estimate_beta")
        assert len(rows) == 1 + 3

    def test_same_seed_reproduces_diagnostics_bytes(self, tmp_path):
        data = tmp_path / "data.csv"
        write_small_dataset(data)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in paths:
            assert main(["smc2", "--n", "8", "--k", "2", "--nx", "16",
                         "--seed", "4", "--data", str(data),
                         "--out", str(out)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_matches_direct_library_run(self, tmp_path):
        data = tmp_path / "data.csv"
        write_small_dataset(data)
        diag = tmp_path / "diag.csv"
        assert main(["smc2", "--n", "8", "--k", "2", "--nx", "16",
                     "--seed", "9", "--data", str(data), "--out", str(diag)]) == 0

        dataset = read_dataset(str(data))
        model = SIRModel(SMALL)
        config = SMC2Config(n_samples=8, n_iterations=2,
                            proposal_cov=0.1 * np.eye(2),
                            pf_config=PFConfig(n_particles=16))
        result = spawn_group(
            1, lambda comm, seed: run_smc2(config, model, dataset, comm, seed), 9)[0]
        parsed = list(csv.DictReader(data_lines(diag)))
        for record, row in zip(result.iterations, parsed):
            assert float(row["estimate_beta"]) == record.estimate[0]
            assert float(row["estimate_gamma"]) == record.estimate[1]
            assert float(row["ess"]) == record.ess


class TestPmcmcCmd:
    def test_chain_csv_has_m_rows(self, tmp_path):
        data = tmp_path / "data.csv"
        write_small_dataset(data)
        chain = tmp_path / "chain.csv"
        code = main(["pmcmc", "--n", "8", "--k", "1", "--nx", "16",
                     "--m", "10", "--seed", "2", "--data", str(data),
                     "--out", str(chain)])
        assert code == 0
        rows = data_lines(chain)
        assert rows[0] == "m,beta,gamma,log_target,accepted"
        assert len(rows) == 1 + 10

    def test_default_chain_length_is_k_times_n(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_small_dataset(data)
        chain = tmp_path / "chain.csv"
        assert main(["pmcmc", "--n", "4", "--k", "2", "--nx", "16",
                     "--seed", "3", "--data", str(data),
                     "--out", str(chain)]) == 0
        assert len(data_lines(chain)) == 1 + 8


class TestBenchmarkCmd:
    def run_sweep(self, tmp_path, out_name, include_pmcmc=True):
        data = tmp_path / "data.csv"
        if not data.exists():
            write_small_dataset(data)
        out = tmp_path / out_name
        argv = ["benchmark", "--n", "4,8", "--p", "1,2", "--k", "1",
                "--nx", "16", "--repeats", "2", "--seed", "21",
                "--data", str(data), "--out", str(out)]
        if include_pmcmc:
            argv.append("--include-pmcmc")
        assert main(argv) == 0
        stem = str(out)[: -len(".csv")]
        return str(out), stem + "_aggregate.csv"

    def test_row_counts(self, tmp_path):
        per_repeat, aggregate = self.run_sweep(tmp_path, "bench.csv")
        rows = read_report_csv(per_repeat)
        # 2 N values x 2 P values x 2 repeats, plus 2 x 2 baseline runs
        assert len(rows) == 8 + 4
        assert sum(1 for r in rows if r["method"] == "pmcmc") == 4
        assert all(r["p"] == 1 for r in rows if r["method"] == "pmcmc")
        assert len(read_report_csv(aggregate)) == 4 + 2

    def test_timing_scope_stated_in_header(self, tmp_path):
        per_repeat, aggregate = self.run_sweep(tmp_path, "bench.csv")
        for path in (per_repeat, aggregate):
            with open(path) as fh:
                first = fh.readline()
            assert first.startswith("# wall_clock_seconds covers the sampler loop only")

    def test_aggregate_means_match_per_repeat_rows(self, tmp_path):
        per_repeat, aggregate = self.run_sweep(tmp_path, "bench.csv")
        rows = read_report_csv(per_repeat)
        for agg in read_report_csv(aggregate):
            members = [r for r in rows
                       if (r["method"], r["n"], r["p"])
                       == (agg["method"], agg["n"], agg["p"])]
            assert len(members) == agg["repeats"] == 2
            for field in ("estimate_beta", "estimate_gamma", "mse",
                          "wall_clock_seconds"):
                expected = np.mean([m[field] for m in members])
                assert abs(agg[field] - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_estimates_independent_of_p(self, tmp_path):
        per_repeat, _ = self.run_sweep(tmp_path, "bench.csv")
        rows = [r for r in read_report_csv(per_repeat) if r["method"] == "smc2"]
        for row in rows:
            twins = [r for r in rows if (r["n"], r["seed"]) == (row["n"], row["seed"])]
            assert len(twins) == 2
            for field in ("estimate_beta", "estimate_gamma", "mse"):
                assert abs(twins[0][field] - twins[1][field]) <= 1e-12

    def test_single_p_sweep_has_unit_speedup(self, tmp_path):
        data = tmp_path / "data.csv"
        write_small_dataset(data)
        out = tmp_path / "solo.csv"
        assert main(["benchmark", "--n", "4", "--p", "1", "--k", "1",
                     "--nx", "16", "--repeats", "2", "--seed", "21",
                     "--data", str(data), "--out", str(out)]) == 0
        aggregate = read_report_csv(str(tmp_path / "solo_aggregate.csv"))
        assert all(row["speedup"] == 1.0 for row in aggregate)

    def test_rerun_identical_apart_from_timing(self, tmp_path):
        first, first_agg = self.run_sweep(tmp_path, "one.csv")
        second, second_agg = self.run_sweep(tmp_path, "two.csv")
        for path_a, path_b, skip in (
            (first, second, ("wall_clock_seconds",)),
            (first_agg, second_agg, ("wall_clock_seconds", "speedup")),
        ):
            rows_a = list(csv.DictReader(data_lines(path_a)))
            rows_b = list(csv.DictReader(data_lines(path_b)))
            assert len(rows_a) == len(rows_b)
            for a, b in zip(rows_a, rows_b):
                for key, value in a.items():
                    if key not in skip:
                        assert value == b[key], key


class TestConvergenceCmd:
    def test_traces_and_final_row_consistency(self, tmp_path):
        data = tmp_path / "data.csv"
        write_small_dataset(data)
        prefix = tmp_path / "trace"
        code = main(["convergence", "--n", "8", "--k", "3", "--nx", "16",
                     "--m", "9", "--seed", "6", "--data", str(data),
                     "--out", str(prefix)])
        assert code == 0

        smc2_rows = list(csv.DictReader(data_lines(f"{prefix}_smc2.csv")))
        assert len(smc2_rows) == 3
        assert [int(r["k"]) for r in smc2_rows] == [1, 2, 3]
        pm_rows = list(csv.DictReader(data_lines(f"{prefix}_pmcmc.csv")))
        assert len(pm_rows) == 9
        assert [int(r["m"]) for r in pm_rows] == list(range(9))

        dataset = read_dataset(str(data))
        config = SMC2Config(n_samples=8, n_iterations=3,
                            proposal_cov=0.1 * np.eye(2),
                            pf_config=PFConfig(n_particles=16))
        result = spawn_group(
            1, lambda comm, seed: run_smc2(config, SIRModel(SMALL), dataset,
                                           comm, seed), 6)[0]
        last = smc2_rows[-1]
        np.testing.assert_allclose(
            [float(last["estimate_beta"]), float(last["estimate_gamma"])],
            result.recycled_estimate, rtol=1e-12)


class TestValidateCmd:
    def test_clean_suites_exit_zero(self, capsys):
        assert main(["validate", "--suite", "recycling", "--cases", "10"]) == 0
        out = capsys.readouterr().out
        assert "recycling: 10 cases, 0 failures [ok]" in out

    def test_injected_fault_exits_two_and_prints_counterexample(self, capsys):
        code = main(["validate", "--suite", "choice", "--cases", "8",
                     "--inject-fault", "sum_deficit"])
        assert code == 2
        out = capsys.readouterr().out
        assert "first counterexample:" in out
        assert "copy counts must sum to N=8" in out

    def test_all_suites_run_by_default(self, capsys):
        assert main(["validate", "--cases", "8"]) == 0
        out = capsys.readouterr().out
        for name in ("comms", "choice", "redistribution", "pf", "recycling"):
            assert f"{name}: 8 cases" in out


class HoldsLock(Exception):
    """An error that cannot cross a process boundary: locks do not pickle."""

    def __init__(self):
        super().__init__("lock-holding error")
        self.lock = threading.Lock()


class TestProcessBackend:
    def test_collectives_match_thread_backend(self, monkeypatch):
        def worker(comm, seed):
            return comm.all_reduce_sum(np.arange(4.0) + comm.rank)

        monkeypatch.setenv("SMC2_BACKEND", "inprocess")
        expected = spawn_group(2, worker, 0)
        monkeypatch.setenv("SMC2_BACKEND", "mpi-like")
        results = spawn_group(2, worker, 0)
        np.testing.assert_array_equal(results[0], expected[0])
        np.testing.assert_array_equal(results[1], expected[1])

    def test_worker_error_carries_rank_and_traceback(self, monkeypatch):
        monkeypatch.setenv("SMC2_BACKEND", "mpi-like")

        def worker(comm, seed):
            if comm.rank == 1:
                raise ValueError("worker exploded")
            return comm.all_reduce_sum(1.0)

        with pytest.raises(ValueError, match="worker exploded") as info:
            spawn_group(2, worker, 0)
        remote = str(info.value.__cause__)
        assert "rank 1 failed" in remote
        assert "Traceback" in remote and 'raise ValueError("worker exploded")' in remote

    def test_unpicklable_worker_error_becomes_runtime_error(self, monkeypatch):
        monkeypatch.setenv("SMC2_BACKEND", "mpi-like")

        def worker(comm, seed):
            if comm.rank == 1:
                raise HoldsLock()
            return comm.all_reduce_sum(1.0)

        with pytest.raises(RuntimeError, match="rank 1 failed") as info:
            spawn_group(2, worker, 0)
        assert "lock-holding error" in str(info.value)

    def test_sampler_run_matches_thread_backend(self, monkeypatch, tmp_path):
        dataset = simulate_sir(SMALL, (0.85, 0.2), seed=8)
        config = SMC2Config(n_samples=8, n_iterations=1,
                            proposal_cov=0.1 * np.eye(2),
                            pf_config=PFConfig(n_particles=16))

        def worker(comm, seed):
            return run_smc2(config, SIRModel(SMALL), dataset, comm, seed)

        monkeypatch.setenv("SMC2_BACKEND", "inprocess")
        baseline = spawn_group(2, worker, 12)[0]
        monkeypatch.setenv("SMC2_BACKEND", "mpi-like")
        forked = spawn_group(2, worker, 12)[0]
        np.testing.assert_array_equal(forked.recycled_estimate,
                                      baseline.recycled_estimate)
        assert forked.iterations[0].ess == baseline.iterations[0].ess

    def test_unknown_backend_rejected(self, monkeypatch):
        monkeypatch.setenv("SMC2_BACKEND", "carrier-pigeon")
        with pytest.raises(Exception, match="unknown backend"):
            spawn_group(1, lambda comm, seed: None, 0)
