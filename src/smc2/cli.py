"""Experiment harness: simulate data, run samplers, sweep, validate.

Subcommands: simulate, smc2, pmcmc, benchmark, convergence, validate.
Exit codes: 0 success, 1 usage error, 2 runtime or suite failure.

Worker groups are spawned per run (P ranks each) and joined before the
next configuration starts, so sweep timings never overlap.  The transport
comes from SMC2_BACKEND ("mpi-like" forked processes by default,
"inprocess" threads for debugging).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import rng as streams
from . import validate as validate_mod
from .comms import spawn_group
from .pf import PFConfig
from .pmcmc import run_pmcmc, write_chain
from .smc2 import SMC2Config, recycle, run_smc2, write_diagnostics
from .ssm import Dataset, SIRConfig, SIRModel, read_dataset, simulate_sir, write_dataset

PROFILES = {
    "desk": {"n": 128, "k": 10, "nx": 200, "repeats": 5},
    "paper": {"n": 1024, "k": 10, "nx": 500, "repeats": 10},
}
LKERNELS = {"forward": "forward_symmetric", "optimal": "approx_optimal_gaussian"}

TIMING_NOTE = ("# wall_clock_seconds covers the sampler loop only; "
               "data simulation and file I/O are excluded")

REPEAT_FIELDS = ["method", "n", "k", "n_x", "p", "seed",
                 "estimate_beta", "estimate_gamma", "mse",
                 "wall_clock_seconds", "comm_rounds"]
AGGREGATE_FIELDS = ["method", "n", "k", "n_x", "p", "repeats",
                    "estimate_beta", "estimate_gamma", "mse",
                    "wall_clock_seconds", "comm_rounds", "speedup"]
TIMING_FIELDS = ("wall_clock_seconds", "speedup")


class UsageError(Exception):
    """Bad invocation; mapped to exit code 1."""


class Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse's sys.exit(2) to exit code 1
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: error: {message}")


@dataclass
class RunReport:
    """Benchmark output: per-repeat rows plus per-(method, N, P) means."""

    rows: list[dict]
    aggregate: list[dict]


# ---------------------------------------------------------------------------
# Shared argument handling.


def _add_run_flags(sub: argparse.ArgumentParser, list_sweep: bool = False,
                   smc2: bool = True) -> None:
    """Sampler flags; `smc2` adds the worker count and the L-kernel."""
    if list_sweep:
        sub.add_argument("--n", default=None,
                         help="comma-separated theta-sample counts, powers of two")
        sub.add_argument("--p", default="1,2,4",
                         help="comma-separated worker counts, powers of two")
    else:
        sub.add_argument("--n", type=int, default=None,
                         help="theta-sample count N (power of two)")
        if smc2:
            sub.add_argument("--p", type=int, default=1,
                             help="worker count P (power of two, at most N)")
    sub.add_argument("--k", type=int, default=None, help="outer iterations K")
    sub.add_argument("--nx", type=int, default=None,
                     help="state particles per filter")
    sub.add_argument("--seed", type=int, default=1, help="root seed")
    sub.add_argument("--sigma-scale", type=float, default=0.1,
                     help="random-walk proposal covariance is this times I")
    if smc2:
        sub.add_argument("--lkernel", choices=tuple(LKERNELS), default="forward",
                         help="backward-kernel choice in the weight update")
    sub.add_argument("--profile", choices=tuple(PROFILES), default="desk",
                     help="size defaults: desk (quick) or paper (full scale)")
    sub.add_argument("--data", default=None,
                     help="dataset CSV written by `simulate`; omitted = simulate in-run")
    sub.add_argument("--reed-frost-standard", action="store_true",
                     help="use the per-susceptible infection pressure form")
    sub.add_argument("--out", default=None, help="output CSV path")


def _require_power_of_two(name: str, value: int) -> None:
    if value < 1 or (value & (value - 1)) != 0:
        raise UsageError(f"--{name} must be a power of two, got {value}")


def _require_at_least(name: str, value: int, low: int) -> None:
    if value < low:
        raise UsageError(f"--{name} must be at least {low}, got {value}")


def _require_sizes(n: int, k: int, nx: int, sigma_scale: float) -> None:
    """The ranges SMC2Config and PFConfig accept, checked as usage errors."""
    _require_power_of_two("n", n)
    _require_at_least("n", n, 2)
    _require_at_least("k", k, 1)
    _require_at_least("nx", nx, 2)
    if not (math.isfinite(sigma_scale) and sigma_scale > 0.0):
        raise UsageError(f"--sigma-scale must be a positive number, got {sigma_scale}")


def _require_workers(p: int, n: int) -> None:
    _require_power_of_two("p", p)
    if p > n:
        raise UsageError(f"--p must not exceed --n, got P={p} and N={n}")


def _int_list(name: str, text: str) -> list[int]:
    try:
        values = [int(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError:
        raise UsageError(f"--{name} expects comma-separated integers, got {text!r}")
    if not values:
        raise UsageError(f"--{name} is empty")
    return values


def _resolve_sizes(args) -> tuple[int, int, int]:
    profile = PROFILES[args.profile]
    n = args.n if args.n is not None else profile["n"]
    k = args.k if args.k is not None else profile["k"]
    nx = args.nx if args.nx is not None else profile["nx"]
    _require_sizes(n, k, nx, args.sigma_scale)
    return n, k, nx


def _model_for(dataset: Dataset, args) -> SIRModel:
    meta = dataset.meta
    config = SIRConfig(
        n_pop=int(meta.get("n_pop", SIRConfig.n_pop)),
        i0=int(meta.get("i0", SIRConfig.i0)),
        n_steps=int(meta.get("n_steps", len(dataset.y))),
    )
    standard = bool(meta.get("reed_frost_standard", False)) or args.reed_frost_standard
    return SIRModel(config, reed_frost_standard=standard)


def _smc2_config(args, n: int, k: int, nx: int) -> SMC2Config:
    return SMC2Config(
        n_samples=n,
        n_iterations=k,
        proposal_cov=args.sigma_scale * np.eye(2),
        pf_config=PFConfig(n_particles=nx),
        lkernel=LKERNELS[args.lkernel],
    )


def _run_group(config: SMC2Config, model, dataset, p: int, seed: int):
    """One SMC² run on a fresh P-rank group; returns (result, comm rounds)."""

    def worker(comm, root_seed):
        result = run_smc2(config, model, dataset, comm, root_seed)
        return result, comm.read_round_counter()

    per_rank = spawn_group(p, worker, seed)
    result = per_rank[0][0]
    rounds = max(rounds for _, rounds in per_rank)
    return result, rounds


def _mse(estimate: np.ndarray, theta_true: np.ndarray) -> float:
    diff = np.asarray(estimate, dtype=float) - np.asarray(theta_true, dtype=float)
    return float(np.mean(diff * diff))


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_simulate(args) -> int:
    if args.out is None:
        raise UsageError("simulate requires --out")
    dataset = simulate_sir(SIRConfig(), (0.85, 0.2), seed=args.seed,
                           reed_frost_standard=args.reed_frost_standard)
    write_dataset(args.out, dataset)
    print(f"wrote {len(dataset.y)} observations to {args.out} "
          f"(population {dataset.meta['n_pop']}, seed {dataset.seed})")
    return 0


def cmd_smc2(args) -> int:
    n, k, nx = _resolve_sizes(args)
    _require_workers(args.p, n)
    dataset = _load_or_simulate_seeded(args, args.seed)
    model = _model_for(dataset, args)
    config = _smc2_config(args, n, k, nx)
    result, rounds = _run_group(config, model, dataset, args.p, args.seed)
    pairs = " ".join(f"{name}={value:.6f}" for name, value
                     in zip(result.param_names, result.recycled_estimate))
    print(f"recycled estimate: {pairs}")
    print(f"mse: {_mse(result.recycled_estimate, dataset.theta_true):.6e}")
    print(f"sampler seconds: {result.elapsed_seconds:.3f}  comm rounds: {rounds}")
    if args.out:
        write_diagnostics(args.out, result)
        print(f"wrote per-iteration diagnostics to {args.out}")
    return 0


def cmd_pmcmc(args) -> int:
    n, k, nx = _resolve_sizes(args)
    m = args.m if args.m is not None else n * k
    _require_at_least("m", m, 2)
    dataset = _load_or_simulate_seeded(args, args.seed)
    model = _model_for(dataset, args)
    rng = streams.stream(args.seed, streams.MCMC_CHAIN)
    result = run_pmcmc(model, dataset, m, args.sigma_scale * np.eye(2),
                       PFConfig(n_particles=nx), rng)
    pairs = " ".join(f"{name}={value:.6f}" for name, value
                     in zip(result.param_names, result.estimate))
    print(f"post burn-in estimate: {pairs}")
    print(f"mse: {_mse(result.estimate, dataset.theta_true):.6e}")
    print(f"acceptance rate: {result.acceptance_rate:.3f}  "
          f"sampler seconds: {result.elapsed_seconds:.3f}")
    if args.out:
        write_chain(args.out, result)
        print(f"wrote chain to {args.out}")
    return 0


def run_benchmark(args, n_values: list[int], p_values: list[int], k: int,
                  nx: int, repeats: int, include_pmcmc: bool) -> RunReport:
    """Serial sweep over (N, P) x repeats; repeat r uses seed args.seed + r."""
    rows = []
    for n in n_values:
        for p in p_values:
            for r in range(repeats):
                seed = args.seed + r
                dataset = _load_or_simulate_seeded(args, seed)
                model = _model_for(dataset, args)
                config = _smc2_config(args, n, k, nx)
                result, rounds = _run_group(config, model, dataset, p, seed)
                rows.append(_report_row("smc2", n, k, nx, p, seed, result.recycled_estimate,
                                        dataset, result.elapsed_seconds, rounds))
        if include_pmcmc:
            for r in range(repeats):
                seed = args.seed + r
                dataset = _load_or_simulate_seeded(args, seed)
                model = _model_for(dataset, args)
                rng = streams.stream(seed, streams.MCMC_CHAIN)
                pm = run_pmcmc(model, dataset, n * k, args.sigma_scale * np.eye(2),
                               PFConfig(n_particles=nx), rng)
                rows.append(_report_row("pmcmc", n, k, nx, 1, seed, pm.estimate,
                                        dataset, pm.elapsed_seconds, 0))
    return RunReport(rows=rows, aggregate=_aggregate(rows))


def _load_or_simulate_seeded(args, seed: int) -> Dataset:
    if args.data is not None:
        if not os.path.exists(args.data):
            raise UsageError(f"dataset not found: {args.data}")
        return read_dataset(args.data)
    return simulate_sir(SIRConfig(), (0.85, 0.2), seed=seed,
                        reed_frost_standard=args.reed_frost_standard)


def _report_row(method: str, n: int, k: int, nx: int, p: int, seed: int,
                estimate, dataset: Dataset, elapsed: float, rounds: int) -> dict:
    return {
        "method": method, "n": n, "k": k, "n_x": nx, "p": p, "seed": seed,
        "estimate_beta": float(estimate[0]), "estimate_gamma": float(estimate[1]),
        "mse": _mse(estimate, dataset.theta_true),
        "wall_clock_seconds": float(elapsed), "comm_rounds": int(rounds),
    }


def _aggregate(rows: list[dict]) -> list[dict]:
    """Means over repeats per (method, N, P); speed-up against the smallest P."""
    keys = []
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["method"], row["n"], row["p"])
        if key not in groups:
            groups[key] = []
            keys.append(key)
        groups[key].append(row)
    base_time = {}
    for (method, n, p), members in groups.items():
        mean_time = float(np.mean([m["wall_clock_seconds"] for m in members]))
        prior = base_time.get((method, n))
        if prior is None or p < prior[0]:
            base_time[(method, n)] = (p, mean_time)
    out = []
    for key in keys:
        method, n, p = key
        members = groups[key]
        mean = lambda field: float(np.mean([m[field] for m in members]))
        mean_time = mean("wall_clock_seconds")
        out.append({
            "method": method, "n": n, "k": members[0]["k"], "n_x": members[0]["n_x"],
            "p": p, "repeats": len(members),
            "estimate_beta": mean("estimate_beta"),
            "estimate_gamma": mean("estimate_gamma"),
            "mse": mean("mse"),
            "wall_clock_seconds": mean_time,
            "comm_rounds": mean("comm_rounds"),
            "speedup": base_time[(method, n)][1] / mean_time,
        })
    return out


def write_report(out_path: str, report: RunReport) -> str:
    """Write per-repeat rows to out_path and means to <stem>_aggregate<ext>."""
    _write_csv(out_path, REPEAT_FIELDS, report.rows)
    if "." in out_path.rsplit("/", 1)[-1]:
        stem, ext = out_path.rsplit(".", 1)
        aggregate_path = f"{stem}_aggregate.{ext}"
    else:
        aggregate_path = out_path + "_aggregate"
    _write_csv(aggregate_path, AGGREGATE_FIELDS, report.aggregate)
    return aggregate_path


def _write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    try:
        with open(path, "w", newline="") as fh:
            fh.write(TIMING_NOTE + "\n")
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            for row in rows:
                writer.writerow({key: _format_cell(row[key]) for key in fieldnames})
    except OSError as exc:
        raise RuntimeError(f"cannot write report to {path}: {exc}") from exc


def _format_cell(value):
    if isinstance(value, float):
        return repr(value)
    return value


def read_report_csv(path: str) -> list[dict]:
    """Read a report CSV back, skipping # comment lines; numbers are parsed."""
    try:
        with open(path, newline="") as fh:
            lines = [line for line in fh if not line.startswith("#")]
    except OSError as exc:
        raise RuntimeError(f"cannot read report at {path}: {exc}") from exc
    rows = []
    for row in csv.DictReader(lines):
        parsed = {}
        for key, text in row.items():
            try:
                parsed[key] = int(text)
            except ValueError:
                try:
                    parsed[key] = float(text)
                except ValueError:
                    parsed[key] = text
        rows.append(parsed)
    return rows


def cmd_benchmark(args) -> int:
    if args.out is None:
        raise UsageError("benchmark requires --out")
    profile = PROFILES[args.profile]
    n_values = _int_list("n", args.n) if args.n is not None else [profile["n"]]
    p_values = _int_list("p", args.p)
    k = args.k if args.k is not None else profile["k"]
    nx = args.nx if args.nx is not None else profile["nx"]
    repeats = args.repeats if args.repeats is not None else profile["repeats"]
    for n in n_values:
        _require_sizes(n, k, nx, args.sigma_scale)
        for p in p_values:
            _require_workers(p, n)
    _require_at_least("repeats", repeats, 1)
    report = run_benchmark(args, n_values, p_values, k, nx, repeats,
                           args.include_pmcmc)
    aggregate_path = write_report(args.out, report)
    print(f"wrote {len(report.rows)} repeat rows to {args.out}")
    print(f"wrote {len(report.aggregate)} aggregate rows to {aggregate_path}")
    for row in report.aggregate:
        print(f"  {row['method']} N={row['n']} P={row['p']}: "
              f"mse={row['mse']:.3e} seconds={row['wall_clock_seconds']:.3f} "
              f"speedup={row['speedup']:.2f}")
    return 0


def cmd_convergence(args) -> int:
    if args.out is None:
        raise UsageError("convergence requires --out (used as a file prefix)")
    n, k, nx = _resolve_sizes(args)
    _require_workers(args.p, n)
    m = args.m if args.m is not None else n * k
    _require_at_least("m", m, 2)
    dataset = _load_or_simulate_seeded(args, args.seed)
    model = _model_for(dataset, args)
    config = _smc2_config(args, n, k, nx)
    result, _ = _run_group(config, model, dataset, args.p, args.seed)

    smc2_path = f"{args.out}_smc2.csv"
    l_values = [record.l_k for record in result.iterations]
    estimates = [record.estimate for record in result.iterations]
    with open(smc2_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", *(f"estimate_{name}" for name in result.param_names)])
        for j in range(1, len(result.iterations) + 1):
            combined, _ = recycle(l_values[:j], estimates[:j])
            writer.writerow([j, *(repr(float(v)) for v in combined)])

    rng = streams.stream(args.seed, streams.MCMC_CHAIN)
    pm = run_pmcmc(model, dataset, m, args.sigma_scale * np.eye(2),
                   PFConfig(n_particles=nx), rng)
    running = np.cumsum(pm.chain.draws, axis=0)
    running /= np.arange(1, len(running) + 1)[:, None]
    pmcmc_path = f"{args.out}_pmcmc.csv"
    with open(pmcmc_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", *(f"estimate_{name}" for name in pm.param_names)])
        for m_idx, row in enumerate(running):
            writer.writerow([m_idx, *(repr(float(v)) for v in row)])

    print(f"wrote {len(result.iterations)}-row recycled-estimate trace to {smc2_path}")
    print(f"wrote {len(running)}-row running-mean trace to {pmcmc_path}")
    return 0


def cmd_validate(args) -> int:
    if args.cases is not None:
        _require_at_least("cases", args.cases, 1)
    if args.inject_fault is not None and args.suite not in ("all", "choice"):
        raise UsageError("--inject-fault only applies to the choice suite")
    names = list(validate_mod.SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        fault = args.inject_fault if name == "choice" else None
        suite = validate_mod.run_suite(name, cases=args.cases, seed=args.seed,
                                       inject_fault=fault)
        status = "ok" if suite.ok else "FAIL"
        print(f"{suite.name}: {suite.cases} cases, "
              f"{len(suite.failures)} failures [{status}]")
        if not suite.ok:
            failed = True
            print(f"  first counterexample: {suite.failures[0]}")
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# Parser wiring.


def build_parser() -> Parser:
    parser = Parser(prog="smc2",
                    description="Distributed SMC^2 calibration experiments")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{simulate,smc2,pmcmc,benchmark,convergence,validate}")

    p_sim = sub.add_parser("simulate", help="write a synthetic epidemic dataset")
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument("--out", default=None, help="dataset CSV path")
    p_sim.add_argument("--reed-frost-standard", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    p_smc2 = sub.add_parser("smc2", help="one SMC^2 run")
    _add_run_flags(p_smc2)
    p_smc2.set_defaults(func=cmd_smc2)

    p_pm = sub.add_parser("pmcmc", help="one particle-MCMC run")
    _add_run_flags(p_pm, smc2=False)
    p_pm.add_argument("--m", type=int, default=None,
                      help="chain length (default K*N)")
    p_pm.set_defaults(func=cmd_pmcmc)

    p_bench = sub.add_parser("benchmark", help="sweep (N, P) and aggregate")
    _add_run_flags(p_bench, list_sweep=True)
    p_bench.add_argument("--repeats", type=int, default=None,
                         help="Monte Carlo repeats per configuration")
    p_bench.add_argument("--include-pmcmc", action="store_true",
                         help="also run the sequential baseline at M = K*N")
    p_bench.set_defaults(func=cmd_benchmark)

    p_conv = sub.add_parser("convergence", help="per-iteration estimate traces")
    _add_run_flags(p_conv)
    p_conv.add_argument("--m", type=int, default=None,
                        help="baseline chain length (default K*N)")
    p_conv.set_defaults(func=cmd_convergence)

    p_val = sub.add_parser("validate", help="run the invariant suites")
    p_val.add_argument("--suite", choices=("all", *validate_mod.SUITES),
                       default="all")
    p_val.add_argument("--cases", type=int, default=None,
                       help="checks per suite (default per-suite)")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--inject-fault", choices=("sum_deficit", "negative"),
                       default=None,
                       help="corrupt one copy-count vector to prove the checks bite")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - uniform runtime-failure exit
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
