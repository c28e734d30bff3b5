"""Replayable invariant suites behind the `validate` subcommand.

Each suite reruns a battery of randomized checks against independent
reference computations and reports failures with enough coordinates
(seed, N, P, case index) to replay one case in isolation.  Case seeds are
derived from (root seed, N, P, case), so a reported counterexample is
reproducible regardless of how many cases ran before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng as streams
from .comms import spawn_group
from .numerics import log_sum_exp
from .pf import PFConfig, run_pf
from .resample import (
    parallel_redistribute,
    reset_weights,
    sequential_redistribute,
    systematic_choice,
)
from .smc2 import ess, normalize, recycle, recycling_weight
from .ssm import LinearGaussianModel, SIRConfig, SIRModel, kalman_loglik, simulate, simulate_sir

DEFAULT_CASES = {
    "comms": 120,
    "choice": 600,
    "redistribution": 360,
    "pf": 20,
    "recycling": 120,
    "streams": 200,
}


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def choice_reference(weights, u: float) -> np.ndarray:
    """Single-pass systematic copy counts from the scaled weight cdf."""
    weights = np.asarray(weights, dtype=float)
    n = weights.shape[0]
    cdf = np.cumsum(n * weights)
    cdf[-1] = float(n)
    csum = np.clip(np.ceil(cdf - u), 0.0, float(n))
    return np.diff(csum, prepend=0.0).astype(np.int64)


def check_copy_counts(ncopies, n_total: int) -> list[str]:
    """Descriptive violations of the copy-count contract, empty when clean."""
    ncopies = np.asarray(ncopies)
    problems = []
    if np.any(ncopies < 0):
        problems.append("copy counts must be nonnegative")
    if np.any(ncopies > n_total):
        problems.append(f"copy counts must not exceed N={n_total}")
    total = int(ncopies.sum())
    if total != n_total:
        problems.append(f"copy counts must sum to N={n_total} (got {total})")
    return problems


def _case_rng(root_seed: int, n: int, size: int, case: int) -> np.random.Generator:
    return np.random.default_rng((root_seed, n, size, case))


def _case_weights(rng: np.random.Generator, n: int, case: int) -> np.ndarray:
    # sprinkle hard patterns between generic random draws
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


def _share(cases: int, buckets: int) -> list[int]:
    base, extra = divmod(cases, buckets)
    return [base + (1 if b < extra else 0) for b in range(buckets)]


# ---------------------------------------------------------------------------
# Suites.


def suite_comms(cases: int, seed: int) -> SuiteResult:
    """Collectives against numpy; exchange_at_distance against the expected rotation."""
    sizes = (1, 2, 4)
    shares = _share(cases, len(sizes))
    failures: list[str] = []
    for size, share in zip(sizes, shares):
        def worker(comm, root_seed, share=share, size=size):
            local_failures = []
            for case in range(share):
                rng = _case_rng(seed, 4, size, case)
                data = rng.normal(size=(size, 4))
                tag = f"seed={seed} N=4 P={size} case={case}"
                total = comm.all_reduce_sum(data[comm.rank])
                if not np.allclose(total, data.sum(axis=0), rtol=1e-12):
                    local_failures.append(f"{tag}: all_reduce_sum drifted from numpy sum")
                peak = comm.all_reduce_max(data[comm.rank])
                if not np.array_equal(peak, data.max(axis=0)):
                    local_failures.append(f"{tag}: all_reduce_max differs from numpy max")
                prefix, totals = comm.exclusive_scan_with_total(data[comm.rank])
                expect = np.vstack([np.zeros(4), np.cumsum(data, axis=0)[:-1]])
                if not np.allclose(prefix, expect[comm.rank], rtol=1e-12, atol=1e-12):
                    local_failures.append(f"{tag}: exclusive scan prefix wrong on rank {comm.rank}")
                row = comm.broadcast(0, data[0])
                if not np.array_equal(row, data[0]):
                    local_failures.append(f"{tag}: broadcast payload corrupted")
                for d in range(1, size):
                    for direction, src in (("down", comm.rank + d), ("up", comm.rank - d)):
                        got = comm.exchange_at_distance(d, data[comm.rank], direction)
                        if not np.array_equal(got, data[src % size]):
                            local_failures.append(
                                f"{tag}: exchange_at_distance({d}, {direction!r}) "
                                f"delivered the wrong row to rank {comm.rank}")
            return local_failures
        for per_rank in spawn_group(size, worker, seed):
            failures.extend(per_rank)
    return SuiteResult("comms", cases, failures)


def suite_choice(cases: int, seed: int, inject_fault: str | None = None) -> SuiteResult:
    """Distributed systematic choice against the direct cdf formula."""
    combos = [(n, p) for n in (8, 16, 64, 256) for p in (1, 2, 4)]
    shares = _share(cases, len(combos))
    failures: list[str] = []
    for (n, size), share in zip(combos, shares):
        n_local = n // size

        def worker(comm, root_seed, n=n, size=size, share=share, n_local=n_local):
            local_failures = []
            for case in range(share):
                rng = _case_rng(seed, n, size, case)
                weights = _case_weights(rng, n, case)
                u = float(rng.random())
                got = systematic_choice(
                    comm, weights[comm.rank * n_local:(comm.rank + 1) * n_local], u)
                expected = choice_reference(weights, u)
                tag = f"seed={seed} N={n} P={size} case={case}"
                block = expected[comm.rank * n_local:(comm.rank + 1) * n_local]
                if not np.array_equal(got, block):
                    local_failures.append(
                        f"{tag}: collective copy counts differ from the direct formula")
                if comm.rank == 0:
                    for problem in check_copy_counts(expected, n):
                        local_failures.append(f"{tag}: {problem}")
            return local_failures

        for per_rank in spawn_group(size, worker, seed):
            failures.extend(per_rank)
    if inject_fault is not None:
        failures.extend(_injected_choice_fault(inject_fault, seed))
    return SuiteResult("choice", cases, failures)


def _injected_choice_fault(kind: str, seed: int) -> list[str]:
    """Corrupt one clean copy-count vector and confirm the checker trips.

    Returns the checker's findings so a deliberately injected fault surfaces
    as a suite failure; used to prove the invariant checks can fail at all.
    """
    rng = np.random.default_rng((seed, 8))
    weights = _case_weights(rng, 8, 0)
    ncopies = choice_reference(weights, float(rng.random()))
    if kind == "sum_deficit":
        victim = int(np.argmax(ncopies))
        ncopies[victim] -= 1
    elif kind == "negative":
        ncopies[0] = -1
    else:
        raise ValueError(f"unknown fault kind {kind!r}")
    return [f"seed={seed} N=8 P=1 case=injected-{kind}: {p}"
            for p in check_copy_counts(ncopies, 8)]


def suite_redistribution(cases: int, seed: int) -> SuiteResult:
    """Full resampling (choice + redistribution) against the sequential form.

    Each case is one oracle comparison; the communication-round budget
    1 + 4 log2(P) is asserted on every case alongside value equality.
    """
    combos = [(n, p) for n in (8, 16, 64, 256) for p in (1, 2, 4, 8) if n >= p]
    shares = _share(cases, len(combos))
    failures: list[str] = []
    for (n, size), share in zip(combos, shares):
        n_local = n // size
        stages = size.bit_length() - 1
        budget = 5 + 4 * stages

        def worker(comm, root_seed, n=n, size=size, share=share,
                   n_local=n_local, budget=budget):
            local_failures = []
            lo = comm.rank * n_local
            hi = lo + n_local
            for case in range(share):
                rng = _case_rng(seed, n, size, 1_000_000 + case)
                weights = _case_weights(rng, n, case)
                u = float(rng.random())
                values = rng.normal(size=n)
                tag = f"seed={seed} N={n} P={size} case={case}"
                comm.reset_round_counter()
                ncopies_local = systematic_choice(comm, weights[lo:hi], u)
                shuffled = parallel_redistribute(comm, values[lo:hi], ncopies_local)
                rounds = comm.read_round_counter()
                expected = sequential_redistribute(
                    values, choice_reference(weights, u))
                if not np.array_equal(shuffled, expected[lo:hi]):
                    local_failures.append(
                        f"{tag}: redistributed block differs from sequential result")
                if rounds > budget:
                    local_failures.append(
                        f"{tag}: resampling used {rounds} rounds, budget {budget}")
            return local_failures

        for per_rank in spawn_group(size, worker, seed):
            failures.extend(per_rank)
    return SuiteResult("redistribution", cases, failures)


def suite_pf(cases: int, seed: int) -> SuiteResult:
    """Filter log-likelihoods against the exact Kalman recursion, plus edge cases."""
    failures: list[str] = []
    model = LinearGaussianModel(0.9, 1.0, 1.0)
    dataset = simulate(model, np.array([0.9]), n_steps=10, seed=seed + 17)
    exact = kalman_loglik(dataset.y, 0.9, 1.0, 1.0)
    estimates = []
    config = PFConfig(n_particles=500)
    for case in range(cases):
        rng = _case_rng(seed, 500, 1, case)
        estimates.append(run_pf(model, dataset, np.array([0.9]), config, rng))
    estimates = np.array(estimates)
    err = abs(estimates.mean() - exact)
    if err > 0.05 * abs(exact):
        failures.append(
            f"seed={seed} N=500 P=1 case=mean: filter mean {estimates.mean():.4f} "
            f"vs exact {exact:.4f}")
    ratio = float(np.mean(np.exp(estimates - exact)))
    if not 0.8 <= ratio <= 1.2:
        failures.append(
            f"seed={seed} N=500 P=1 case=ratio: likelihood ratio mean {ratio:.3f} "
            "outside [0.8, 1.2]")

    sir = SIRModel(SIRConfig(n_pop=100, i0=0, n_steps=3))
    impossible = run_pf(sir, np.array([4.0, 2.0, 1.0]), np.array([0.5, 0.2]),
                        PFConfig(n_particles=64), np.random.default_rng(seed))
    if impossible != float("-inf"):
        failures.append(
            f"seed={seed} N=64 P=1 case=degenerate: impossible data scored "
            f"{impossible} instead of -inf")

    healthy = simulate_sir(SIRConfig(n_pop=500, i0=2, n_steps=5), (0.85, 0.2),
                           seed=seed + 5)
    score = run_pf(SIRModel(SIRConfig(n_pop=500, i0=2, n_steps=5)), healthy,
                   np.array([0.85, 0.2]), PFConfig(n_particles=64),
                   np.random.default_rng(seed + 1))
    if not np.isfinite(score):
        failures.append(
            f"seed={seed} N=64 P=1 case=healthy: finite-data run scored {score}")
    return SuiteResult("pf", cases, failures)


def suite_recycling(cases: int, seed: int) -> SuiteResult:
    """Weight normalization, ESS, recycling identities on random populations."""
    sizes = (1, 2)
    shares = _share(cases, len(sizes))
    failures: list[str] = []
    for size, share in zip(sizes, shares):
        def worker(comm, root_seed, size=size, share=share):
            local_failures = []
            for case in range(share):
                rng = _case_rng(seed, 16, size, case)
                lw = rng.normal(size=16) * 3.0
                n_local = 16 // size
                lo = comm.rank * n_local
                block = lw[lo:lo + n_local]
                tag = f"seed={seed} N=16 P={size} case={case}"
                normalized, log_total = normalize(comm, block)
                total = comm.all_reduce_sum(float(normalized.sum()))
                if abs(total - 1.0) > 1e-12:
                    local_failures.append(f"{tag}: normalized weights sum to {total}")
                e = ess(comm, normalized)
                if not 1.0 <= e <= 16.0 + 1e-9:
                    local_failures.append(f"{tag}: ESS {e} outside [1, N]")
                l_k = recycling_weight(comm, block)
                if not 0.0 <= l_k <= 16.0 + 1e-9:
                    local_failures.append(f"{tag}: recycling weight {l_k} outside [0, N]")
                if abs(l_k - e) > 1e-9 * max(1.0, e):
                    local_failures.append(
                        f"{tag}: recycling weight {l_k} != ESS {e}")
                if abs(log_total - log_sum_exp(lw)) > 1e-9:
                    local_failures.append(f"{tag}: log total drifted")
                after = reset_weights(block, 16, log_total)
                re_norm, log_total_after = normalize(comm, after)
                if abs(log_total_after - log_total) > 1e-12:
                    local_failures.append(
                        f"{tag}: reset changed the log total by "
                        f"{log_total_after - log_total:.3e}")
                if ess(comm, re_norm) != 16.0:
                    local_failures.append(f"{tag}: ESS after reset is not exactly N")
            return local_failures

        for per_rank in spawn_group(size, worker, seed):
            failures.extend(per_rank)

    rng = np.random.default_rng(seed)
    for case in range(10):
        l_values = rng.uniform(0.0, 16.0, size=5)
        l_values[0] = max(l_values[0], 1e-3)
        _, coeffs = recycle(l_values, rng.normal(size=(5, 2)))
        if abs(coeffs.sum() - 1.0) > 1e-12:
            failures.append(
                f"seed={seed} N=5 P=1 case=coeffs-{case}: recycling constants "
                f"sum to {coeffs.sum()}")
    return SuiteResult("recycling", cases, failures)


def suite_streams(cases: int, seed: int) -> SuiteResult:
    """Block-derived stream seeds against numpy's own SeedSequence, on random keys.

    `rng.seed_words` re-implements SeedSequence's hash; a numpy whose
    hash differs would silently change every sampler stream, so this
    compares words and first draws on this install.
    """
    failures: list[str] = []
    for case in range(cases):
        rng = _case_rng(seed, 0, 1, case)
        n_words = int(rng.integers(1, 9))
        root = int.from_bytes(rng.bytes(4 * n_words), "little")
        tag = int(rng.integers(6))
        k = int(rng.integers(2**32))
        idx = rng.integers(2**32, size=4)
        words = streams.seed_words(root, tag, k, idx)
        for j, i in enumerate(idx.tolist()):
            key = f"seed={seed} case={case} key=({root}, {tag}, {k}, {i})"
            want = np.random.SeedSequence(root, spawn_key=(tag, k, i))
            if not np.array_equal(words[j], want.generate_state(4, np.uint64)):
                failures.append(f"{key}: seed words differ from SeedSequence")
            elif (streams.stream_from_words(words[j]).random(4).tobytes()
                  != streams.stream(root, tag, k, i).random(4).tobytes()):
                failures.append(f"{key}: draws differ from rng.stream")
    return SuiteResult("streams", cases, failures)


SUITES = {
    "comms": suite_comms,
    "choice": suite_choice,
    "redistribution": suite_redistribution,
    "pf": suite_pf,
    "recycling": suite_recycling,
    "streams": suite_streams,
}


def run_suite(name: str, cases: int | None = None, seed: int = 0,
              inject_fault: str | None = None) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    if cases is None:
        cases = DEFAULT_CASES[name]
    if cases < 1:
        raise ValueError("cases must be at least 1")
    if name == "choice":
        return suite_choice(cases, seed, inject_fault=inject_fault)
    if inject_fault is not None:
        raise ValueError("fault injection only applies to the choice suite")
    return SUITES[name](cases, seed)

