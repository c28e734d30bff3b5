"""Benchmark of the smc2 samplers, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run measures one workload for S seconds of whole sampler calls and
prints, as its last line, one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 every call is made twice, untraced and then traced with the
same seed, and the metrics are the per-layer ones.  The full record (host,
backend, per-call figures) is also written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"run_s": "s", "loglik_evals_per_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer metric -> unit
LAYER_UNITS = {
    "pf.calls": "count", "pf.busy_s": "s", "pf.particle_steps": "count",
    "pf.ns_per_particle_step": "ns", "pf.resample_events": "count",
    "ssm.transition_s": "s", "ssm.obs_density_s": "s",
    "rng.streams": "count", "rng.stream_s": "s",
    "smc2.propose_s": "s", "smc2.lkernel_fit_s": "s", "smc2.lkernel_density_s": "s",
    "smc2.weight_stats_s": "s", "smc2.out_of_support": "count", "smc2.self_s": "s",
    "smc2.rank_busy_max_s": "s", "smc2.rank_busy_mean_s": "s",
    "resample.events": "count", "resample.choice_s": "s", "resample.redistribute_s": "s",
    "comms.rounds": "count", "comms.messages": "count", "comms.bytes": "bytes",
    "comms.collective_s": "s", "comms.codec_s": "s",
    "mp_backend.spawn_s": "s", "pmcmc.self_s": "s", "trace.overhead_s": "s",
}

CPU_SPANS = {
    "pf.busy_s": "pf.run_pf", "ssm.transition_s": "ssm.transition",
    "ssm.obs_density_s": "ssm.obs_density", "rng.stream_s": "rng.stream",
    "smc2.propose_s": "smc2.propose", "smc2.lkernel_fit_s": "smc2.lkernel_fit",
    "smc2.lkernel_density_s": "smc2.lkernel_density",
    "smc2.weight_stats_s": "smc2.weight_stats", "resample.choice_s": "resample.choice",
    "resample.redistribute_s": "resample.redistribute", "comms.codec_s": "comms.codec",
}
COUNTS = ("pf.calls", "pf.particle_steps", "pf.resample_events", "rng.streams",
          "smc2.out_of_support", "comms.messages", "comms.bytes")


def read_cpu_times() -> list[int] | None:
    """The aggregate `cpu` line of /proc/stat, or None where there is none."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    return [int(v) for v in fields[1:9]]


def steal_share(before, after) -> float | None:
    """Share of all CPU time stolen by the hypervisor between two readings."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total > 0 else None


def host_record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def layer_values(op) -> dict:
    """Per-layer figures of one traced call, summed over its ranks."""
    spans = [r.trace["spans"] for r in op.ranks]
    counts = [r.trace["counts"] for r in op.ranks]

    def span_sum(name, field):
        return sum(s[name][field] for s in spans if name in s)

    out = {key: span_sum(name, "cpu") for key, name in CPU_SPANS.items()}
    for key in COUNTS:
        out[key] = sum(c.get(key, 0) for c in counts)
    steps = out["pf.particle_steps"]
    out["pf.ns_per_particle_step"] = out["pf.busy_s"] / steps * 1e9 if steps else 0.0
    out["smc2.self_s"] = span_sum("smc2.run", "self_cpu")
    busy = [s["smc2.run"]["cpu"] - s.get("comms.collective", {}).get("cpu", 0.0)
            for s in spans if "smc2.run" in s]
    out["smc2.rank_busy_max_s"] = max(busy) if busy else 0.0
    out["smc2.rank_busy_mean_s"] = statistics.fmean(busy) if busy else 0.0
    # every rank takes part in each resampling and each round
    out["resample.events"] = max(c.get("resample.events", 0) for c in counts)
    out["comms.rounds"] = op.rounds
    out["comms.collective_s"] = span_sum("comms.collective", "wall")
    out["mp_backend.spawn_s"] = (op.run_s - max(r.run_wall for r in op.ranks)
                                 if busy else 0.0)
    out["pmcmc.self_s"] = span_sum("pmcmc.run", "self_cpu")
    return out


@dataclass
class Measured:
    attempted: int
    failed: int
    problems: list[str]
    pairs: list        # (untraced op, traced op or None) per call that ran
    steal_share: float | None


def measure(wl, inputs, seed: int, seconds: float, trace: bool) -> Measured:
    """Whole sampler calls until `seconds` have passed, each checked.

    With `trace`, each call is made untraced and then traced with the same
    root seed, and the two must agree bitwise.
    """
    import tracing
    import workloads

    run = Measured(0, 0, [], [], None)
    cpu_before = read_cpu_times()
    start = time.perf_counter()
    with tracing.Tracer() as counter:
        workloads.install_eval_counter(counter)
        j = 0
        while j == 0 or time.perf_counter() - start < seconds:
            root = workloads.root_seed(seed, j)
            ops = {}
            for traced in ((False, True) if trace else (False,)):
                run.attempted += 1
                try:
                    with tracing.Tracer() as layers:
                        if traced:
                            tracing.install_layers(layers, type(inputs.model))
                        ops[traced] = wl.call(inputs, root, traced)
                except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                    run.failed += 1
                    run.problems.append(f"call {j} (root seed {root}): "
                                        f"{type(exc).__name__}: {exc}")
            for op in ops.values():
                run.problems += [f"call {j}: {p}" for p in wl.check_op(inputs, op)]
            if len(ops) == 2 and (workloads.fingerprint(ops[False])
                                  != workloads.fingerprint(ops[True])):
                run.problems.append(f"call {j}: traced and untraced outputs differ")
            if False in ops:
                run.pairs.append((ops[False], ops.get(True)))
            j += 1
    run.steal_share = steal_share(cpu_before, read_cpu_times())
    plain = [untraced for untraced, _ in run.pairs]
    if plain:
        run.problems += wl.check_run(inputs, plain)
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if wl.backend is None:
        os.environ.pop("SMC2_BACKEND", None)
    else:
        os.environ["SMC2_BACKEND"] = wl.backend

    setup_s = []
    if not args.trace:
        setup_s = [probe_setup(wl.name, args.seed) for _ in range(SETUP_PROBES)]
    inputs = wl.setup(args.seed)

    run = measure(wl, inputs, args.seed, args.seconds, bool(args.trace))
    plain = [untraced for untraced, _ in run.pairs]
    if args.trace:
        traced = [op for _, op in run.pairs if op is not None]
        per_call = [dict(layer_values(op), run_s=op.run_s, untraced_run_s=un.run_s)
                    for un, op in run.pairs if op is not None]
        metrics = {key: statistics.median(v[key] for v in per_call) if per_call else 0.0
                   for key in LAYER_UNITS if key != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (
            statistics.median(op.run_s for op in traced)
            - statistics.median(v["untraced_run_s"] for v in per_call) if traced else 0.0)
        units = LAYER_UNITS
    else:
        per_call = [{"run_s": op.run_s, "evals": op.evals} for op in plain]
        rss_kb = max([workloads.maxrss_kb()] + [r.maxrss_kb for op in plain
                                                for r in op.ranks])
        metrics = {
            "run_s": statistics.median(op.run_s for op in plain) if plain else 0.0,
            "loglik_evals_per_s": (sum(op.evals for op in plain)
                                   / sum(op.run_s for op in plain)) if plain else 0.0,
            "peak_rss_mb": rss_kb / 1024.0,
            "setup_s": statistics.median(setup_s),
        }
        units = END_TO_END_UNITS
    problems = run.problems

    rank_pids = {r.pid for op in plain for r in op.ranks}
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "backend": {"SMC2_BACKEND": os.environ.get("SMC2_BACKEND", "(program default)"),
                    "ranks": wl.ranks,
                    "rank_kind": "processes" if rank_pids - {os.getpid()} else "threads"
                    if wl.ranks > 1 else "none"},
        "host": dict(host_record(), steal_share=run.steal_share),
        "setup_s_samples": setup_s,
        "per_call": per_call,
        "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    record["result"] = result
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {wl.name}  seed {args.seed}  backend "
          f"{record['backend']['SMC2_BACKEND']} ({record['backend']['rank_kind']})")
    print("host " + json.dumps(record["host"]))
    for problem in problems:
        print(f"problem: {problem}")
    for key, val in result["metrics"].items():
        print(f"{key} = {val['value']:.6g} {val['unit']}")
    print(f"attempted {run.attempted}  failed {run.failed}  correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
