"""End-to-end acceptance gate, one test per shipping criterion.

Every test asserts its stated tolerance and prints a single PASS line with
the measured quantities (visible with -s, or in the failure report
otherwise).  Statistical checks run on frozen seeds, so their outcomes are
deterministic for a fixed numpy version.  Criterion 9 is report-only by
design: the runtime trend is printed as PASS or WARN but never fails the
suite, because parallel speedup depends on the host's free CPUs.
"""

import time

import numpy as np
from scipy.integrate import quad

from smc2 import rng as streams
from smc2.cli import main, read_report_csv
from smc2.comms import spawn_group
from smc2.pf import PFConfig, run_pf
from smc2.pmcmc import run_pmcmc
from smc2.resample import (
    parallel_redistribute,
    reset_weights,
    sequential_redistribute,
    systematic_choice,
)
from smc2.smc2 import (
    GaussianJointFit,
    SMC2Config,
    ess,
    gaussian_log_density,
    lkernel_log_density,
    normalize,
    run_smc2,
)
from smc2.ssm import (
    LinearGaussianModel,
    SIRConfig,
    SIRModel,
    kalman_loglik,
    simulate,
    simulate_sir,
)
from smc2.validate import choice_reference

TRUTH = np.array([0.85, 0.2])


def _pass(num: int, text: str) -> None:
    print(f"criterion {num} PASS: {text}")


def _weights(rng: np.random.Generator, n: int, case: int) -> np.ndarray:
    """Random weight vectors with degenerate patterns sprinkled in."""
    if case % 7 == 3:
        w = np.zeros(n)
        w[int(rng.integers(n))] = 1.0
        return w
    if case % 7 == 5:
        w = np.zeros(n)
        live = max(1, n // 4)
        w[n - live:] = 1.0 / live
        return w
    w = rng.random(n) + 1e-3
    return w / w.sum()


def _desk_run(seed: int, n: int = 128, k: int = 10, nx: int = 200,
              p: int = 1, resample_fraction: float = 0.5):
    """One calibration run on a fresh paper-shaped dataset."""
    dataset = simulate_sir(SIRConfig(), TRUTH, seed=seed)
    config = SMC2Config(n_samples=n, n_iterations=k,
                        proposal_cov=0.1 * np.eye(2),
                        pf_config=PFConfig(n_particles=nx),
                        resample_fraction=resample_fraction)
    model = SIRModel(SIRConfig())
    worker = lambda comm, s: run_smc2(config, model, dataset, comm, s)
    return spawn_group(p, worker, seed)[0], dataset


def _mse(estimate) -> float:
    diff = np.asarray(estimate) - TRUTH
    return float(np.mean(diff * diff))


def test_criterion_01_redistribution_matches_sequential_oracle(monkeypatch):
    """1000 randomized cases per (N, P) in {8..1024} x {1,2,4,8}, exact.

    The criterion checks the redistribution algorithm, not the transport,
    and its time bound was set on rank threads, so it runs on those.
    """
    monkeypatch.setenv("SMC2_BACKEND", "inprocess")
    start = time.perf_counter()
    cases_per_combo = 1000
    combos = [(n, p) for n in (8, 16, 32, 64, 128, 256, 512, 1024)
              for p in (1, 2, 4, 8)]
    for n, p in combos:
        n_local = n // p
        # Each case and its oracle output are built once, not once per rank.
        cases = []
        for case in range(cases_per_combo):
            rng = np.random.default_rng((5150, n, p, case))
            weights = _weights(rng, n, case)
            u = float(rng.random())
            values = rng.normal(size=n)
            ncopies = choice_reference(weights, u)
            expected = sequential_redistribute(values, ncopies)
            cases.append((values, ncopies, expected))

        def worker(comm, root_seed, cases=cases, n_local=n_local):
            mismatches = 0
            lo = comm.rank * n_local
            hi = lo + n_local
            for values, ncopies, expected in cases:
                got = parallel_redistribute(comm, values[lo:hi], ncopies[lo:hi])
                if not np.array_equal(got, expected[lo:hi]):
                    mismatches += 1
            return mismatches

        assert sum(spawn_group(p, worker, 0)) == 0, f"mismatch at N={n} P={p}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    _pass(1, f"{cases_per_combo * len(combos)} parallel-vs-sequential cases "
             f"identical in {elapsed:.1f}s")


def test_criterion_02_choice_invariants_and_unbiasedness():
    """Copy counts sum to N within bounds, exact; E[counts] = N*w within 4 sigma."""
    start = time.perf_counter()

    def worker(comm, root_seed):
        violations = 0
        for case in range(10_000):
            n = (8, 64, 256)[case % 3]
            rng = np.random.default_rng((616, case))
            weights = _weights(rng, n, case)
            ncopies = systematic_choice(comm, weights, float(rng.random()))
            if ncopies.sum() != n or ncopies.min() < 0 or ncopies.max() > n:
                violations += 1
        return violations

    assert spawn_group(1, worker, 0)[0] == 0

    n = 16
    rng = np.random.default_rng(909)
    fixed = [
        np.full(n, 1.0 / n),
        np.eye(n)[4],
        np.arange(1.0, n + 1.0) / np.arange(1.0, n + 1.0).sum(),
        np.repeat([0.02, 0.105], n // 2),
        (lambda w: w / w.sum())(rng.random(n) + 1e-3),
    ]
    u_draws = np.random.default_rng(99).random(100_000)
    for weights in fixed:
        cdf = np.cumsum(n * weights)
        cdf[-1] = float(n)
        csum = np.clip(np.ceil(cdf[None, :] - u_draws[:, None]), 0.0, float(n))
        counts = np.diff(csum, prepend=0.0, axis=1)
        mean = counts.mean(axis=0)
        sigma = counts.std(axis=0, ddof=1) / np.sqrt(len(u_draws))
        np.testing.assert_array_less(np.abs(mean - n * weights),
                                     4.0 * sigma + 1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"choice sweep took {elapsed:.1f}s"
    _pass(2, f"10000 exact invariant cases and 5x100000-draw unbiasedness "
             f"checks in {elapsed:.1f}s")


def test_criterion_03_communication_round_bound():
    """Rounds per full resampling <= 5 + 4*log2(P) at N=1024, hard."""
    n = 1024
    worst = {}
    for p in (2, 4, 8):
        n_local = n // p

        def worker(comm, root_seed, p=p, n_local=n_local):
            rounds = []
            lo = comm.rank * n_local
            hi = lo + n_local
            for case in range(6):
                rng = np.random.default_rng((31337, p, case))
                weights = _weights(rng, n, case)
                u = float(rng.random())
                values = rng.normal(size=n)
                comm.reset_round_counter()
                ncopies_local = systematic_choice(comm, weights[lo:hi], u)
                parallel_redistribute(comm, values[lo:hi], ncopies_local)
                rounds.append(comm.read_round_counter())
            return rounds

        per_rank = spawn_group(p, worker, 0)
        bound = 5 + 4 * (p.bit_length() - 1)
        worst[p] = max(max(r) for r in per_rank)
        assert worst[p] <= bound, f"P={p}: {worst[p]} rounds > bound {bound}"
    _pass(3, "rounds per resampling " +
             ", ".join(f"P={p}: {worst[p]} <= {5 + 4 * (p.bit_length() - 1)}"
                       for p in (2, 4, 8)))


def test_criterion_04_filter_matches_kalman():
    """Linear-Gaussian likelihoods against the exact recursion, 200 runs."""
    start = time.perf_counter()
    model = LinearGaussianModel(0.9, 1.0, 1.0)
    dataset = simulate(model, np.array([0.9]), n_steps=20, seed=404)
    exact = kalman_loglik(dataset.y, 0.9, 1.0, 1.0)
    config = PFConfig(n_particles=2000)
    estimates = np.array([
        run_pf(model, dataset, np.array([0.9]), config,
               np.random.default_rng((404, run)))
        for run in range(200)
    ])
    bias = abs(estimates[:50].mean() - exact)
    assert bias <= 0.01 * abs(exact), f"bias {bias:.4f} vs 1% of {abs(exact):.2f}"
    ratio = float(np.mean(np.exp(estimates - exact)))
    assert 0.9 <= ratio <= 1.1, f"likelihood ratio mean {ratio:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"filter sweep took {elapsed:.1f}s"
    _pass(4, f"|mean-Kalman|={bias:.3f} (gate {0.01 * abs(exact):.3f}), "
             f"ratio mean {ratio:.3f} in [0.9, 1.1], {elapsed:.1f}s")


def test_criterion_05_sir_calibration_desk_scale():
    """N=128, K=10, N_x=200 on the full epidemic: 5 seeded repeats.

    Gate: |E[beta]-0.85| <= 0.1, |E[gamma]-0.2| <= 0.05, MSE <= 5e-3 on at
    least 4 of 5.  The full-scale profile (N=1024, N_x=500) is exercised
    manually through `smc2 benchmark --profile paper`; it is minutes of
    runtime and not gated here.
    """
    verdicts = []
    lines = []
    for seed in range(100, 105):
        result, _ = _desk_run(seed)
        beta, gamma = result.recycled_estimate
        mse = _mse(result.recycled_estimate)
        verdicts.append(abs(beta - 0.85) <= 0.1 and abs(gamma - 0.2) <= 0.05
                        and mse <= 5e-3)
        lines.append(f"seed {seed}: beta={beta:.4f} gamma={gamma:.4f} mse={mse:.1e}")
    assert sum(verdicts) >= 4, "\n".join(lines)
    _pass(5, f"{sum(verdicts)}/5 repeats within gates; " + "; ".join(lines))


def test_criterion_06_smc2_beats_pmcmc_in_paired_runs():
    """Desk scale, matched budget M = K*N: SMC2 MSE <= p-MCMC MSE on >= 6/10.

    Soft statistical gate on frozen seeds 200..209; the margin widens with
    problem size, and at this size the paired outcome is deterministic.
    """
    wins = 0
    lines = []
    for seed in range(200, 210):
        result, dataset = _desk_run(seed)
        mse_smc2 = _mse(result.recycled_estimate)
        chain = run_pmcmc(SIRModel(SIRConfig()), dataset, 1280,
                          0.1 * np.eye(2), PFConfig(n_particles=200),
                          streams.stream(seed, streams.MCMC_CHAIN))
        mse_pmcmc = _mse(chain.estimate)
        wins += mse_smc2 <= mse_pmcmc
        lines.append(f"seed {seed}: {mse_smc2:.2e} vs {mse_pmcmc:.2e}")
    assert wins >= 6, "\n".join(lines)
    _pass(6, f"SMC2 won {wins}/10 paired runs at matched budget M=1280")


def test_criterion_07_worker_count_invariance():
    """Same seed at P in {1,2,4}: recycled estimate, ESS, l_k within 1e-12."""
    dataset = simulate_sir(SIRConfig(n_pop=1000, i0=2, n_steps=10), TRUTH,
                           seed=2024)
    config = SMC2Config(n_samples=32, n_iterations=3,
                        proposal_cov=0.1 * np.eye(2),
                        pf_config=PFConfig(n_particles=64))
    model = SIRModel(SIRConfig(n_pop=1000, i0=2, n_steps=10))
    worker = lambda comm, s: run_smc2(config, model, dataset, comm, s)
    results = {p: spawn_group(p, worker, 4242)[0] for p in (1, 2, 4)}
    base = results[1]
    for p in (2, 4):
        np.testing.assert_allclose(results[p].recycled_estimate,
                                   base.recycled_estimate, rtol=1e-12, atol=0.0)
        for ours, ref in zip(results[p].iterations, base.iterations):
            assert abs(ours.ess - ref.ess) <= 1e-12 * ref.ess
            assert abs(ours.l_k - ref.l_k) <= 1e-12 * max(1.0, ref.l_k)
    _pass(7, f"P in (1, 2, 4) agree to 1e-12; recycled estimate "
             f"({base.recycled_estimate[0]:.6f}, {base.recycled_estimate[1]:.6f})")


def test_criterion_08_recycling_and_weight_identities():
    """Recycling constants sum to 1; l_k bounded; every reset preserves mass.

    The in-run part forces a resampling every iteration and checks the
    run-level identities; the primitive sweep drives the same reset routine
    the sampler calls, across worker counts and extreme weight spreads,
    asserting log-total preservation at 1e-12 and exact ESS = N.
    """
    dataset = simulate_sir(SIRConfig(n_pop=500, i0=2, n_steps=6), TRUTH, seed=880)
    config = SMC2Config(n_samples=16, n_iterations=4,
                        proposal_cov=0.1 * np.eye(2),
                        pf_config=PFConfig(n_particles=32),
                        resample_fraction=1.0)
    model = SIRModel(SIRConfig(n_pop=500, i0=2, n_steps=6))
    worker = lambda comm, s: run_smc2(config, model, dataset, comm, s)
    result = spawn_group(2, worker, 81)[0]
    assert all(record.resampled for record in result.iterations)
    coeff_sum = float(np.sum(result.recycling_coefficients))
    assert abs(coeff_sum - 1.0) <= 1e-12
    assert all(0.0 <= record.l_k <= 16.0 for record in result.iterations)
    assert all(record.ess <= 16.0 for record in result.iterations)

    n = 16
    for p in (1, 2, 4):
        n_local = n // p

        def worker(comm, root_seed, p=p, n_local=n_local):
            drift = 0.0
            for case in range(40):
                rng = np.random.default_rng((777, p, case))
                scale = (0.5, 5.0, 50.0)[case % 3]
                block = rng.normal(size=n_local) * scale
                _, log_total = normalize(comm, block)
                after = reset_weights(block, n, log_total)
                re_norm, log_total_after = normalize(comm, after)
                drift = max(drift, abs(log_total_after - log_total))
                assert ess(comm, re_norm) == float(n)
            return drift

        worst = max(spawn_group(p, worker, 0))
        assert worst <= 1e-12, f"P={p}: log-total drift {worst:.3e}"
    _pass(8, f"coefficients sum to 1 within {abs(coeff_sum - 1.0):.1e}; "
             f"120 resets preserved mass exactly with ESS == N")


def test_criterion_09_runtime_trend_report_only(tmp_path):
    """Mean sampler runtime from P=1 to P=4 at N=4096, N_x=500 (report-only).

    Wall-clock gains from forked ranks depend on how many CPUs the host has
    free; the outcome is printed as PASS or WARN and never fails the suite.
    The hard complexity gate is the round bound of criterion 3.
    """
    out = tmp_path / "trend.csv"
    code = main(["benchmark", "--n", "4096", "--p", "1,4", "--k", "1",
                 "--nx", "500", "--repeats", "1", "--seed", "77",
                 "--out", str(out)])
    assert code == 0
    aggregate = read_report_csv(str(tmp_path / "trend_aggregate.csv"))
    times = {row["p"]: row["wall_clock_seconds"] for row in aggregate
             if row["method"] == "smc2"}
    assert set(times) == {1, 4}
    assert all(t > 0.0 for t in times.values())
    if times[4] <= times[1]:
        print(f"criterion 9 PASS (report-only): mean runtime non-increasing, "
              f"P=1 {times[1]:.1f}s -> P=4 {times[4]:.1f}s")
    else:
        print(f"criterion 9 WARN (report-only): mean runtime increased, "
              f"P=1 {times[1]:.1f}s -> P=4 {times[4]:.1f}s "
              f"(speedup depends on the host's free CPUs)")


def test_criterion_10_lkernel_density_checks():
    """Conditional density integrates to 1 within 1e-6; zero cross block exact."""
    fit = GaussianJointFit(
        mean_prev=np.array([0.3]), mean_curr=np.array([-0.1]),
        cov_prev_prev=np.array([[0.8]]), cov_prev_curr=np.array([[0.3]]),
        cov_curr_curr=np.array([[0.5]]))
    theta_curr = np.array([0.4])
    total, err = quad(
        lambda x: np.exp(lkernel_log_density(np.array([x]), theta_curr, fit)),
        -12.0, 12.0, epsabs=1e-10, epsrel=1e-10)
    assert abs(total - 1.0) < 1e-6, f"quadrature total {total}"

    uncoupled = GaussianJointFit(
        mean_prev=np.array([0.3]), mean_curr=np.array([-0.1]),
        cov_prev_prev=np.array([[0.8]]), cov_prev_curr=np.array([[0.0]]),
        cov_curr_curr=np.array([[0.5]]))
    for x in (-1.5, 0.0, 0.3, 2.0):
        point = np.array([x])
        assert lkernel_log_density(point, theta_curr, uncoupled) == \
            gaussian_log_density(point, uncoupled.mean_prev,
                                 uncoupled.cov_prev_prev)
    _pass(10, f"quadrature total {total:.9f}; uncoupled case bitwise equal "
              f"to the marginal at 4 probe points")
