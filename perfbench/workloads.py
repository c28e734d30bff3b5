"""The benchmark's workloads: inputs made from a seed, one sampler call, checks.

Each workload calls the library the way `smc2 smc2` and `smc2 pmcmc` do:
`run_smc2` under `spawn_group`, or `run_pmcmc` with the chain stream.  The
program is imported from the checkout's own `src/`.
"""

from __future__ import annotations

import functools
import math
import os
import resource
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import smc2  # noqa: E402
import smc2.pmcmc  # noqa: E402
import smc2.smc2  # noqa: E402
from smc2 import (PFConfig, SIRConfig, SIRModel, SMC2Config,  # noqa: E402
                  run_pmcmc, run_smc2, simulate_sir, spawn_group)
from smc2 import rng as streams  # noqa: E402

import tracing  # noqa: E402

if not Path(smc2.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"smc2 was imported from {smc2.__file__}, not from {SRC}")

TRUTH = (0.85, 0.2)
# The paper's SIR shape; N * K = 1280 is the matched p-MCMC chain length.
SIR_N, SIR_K, SIR_NX = 128, 10, 500
SIGMA = 0.1
# Criterion 5's gates on the calibrated estimate.
GATE_BETA, GATE_GAMMA, GATE_MSE = 0.1, 0.05, 5e-3
# The conjugate Gaussian target.
GAUSS_N, GAUSS_K, GAUSS_OBS, GAUSS_OBS_VAR = 1024, 10, 5, 1.0
GAUSS_MEAN_TOL, GAUSS_LOGZ_TOL = 0.06, 0.5
# Rounding slack on ESS in [1, N] and on the recycling coefficients' sum.
ESS_SLACK, COEFF_TOL = 1e-9, 1e-12


def root_seed(seed: int, j: int) -> int:
    """Root seed of the j-th sampler call of a run with --seed `seed`."""
    return seed * 10_000 + j


# ---------------------------------------------------------------------------
# The plain likelihood-evaluation counter (no timer), one count per thread.

_evals = threading.local()


def counted(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _evals.n = getattr(_evals, "n", 0) + 1
        return fn(*args, **kwargs)
    return wrapper


def take_evals() -> int:
    n = getattr(_evals, "n", 0)
    _evals.n = 0
    return n


def install_eval_counter(tracer: tracing.Tracer) -> None:
    """Count filter runs where both samplers look `run_pf` up."""
    for module in (smc2.smc2, smc2.pmcmc):
        tracer.install(module, "run_pf", counted)


# ---------------------------------------------------------------------------
# The conjugate Gaussian target.


class GaussTarget:
    """Prior N(0, I_2); observations y_j ~ N(theta, obs_var I_2), j = 1..n.

    `loglik` is the exact log-likelihood, passed to the sampler as
    `loglik_fn`.  The posterior and the evidence have closed forms.
    """

    param_dim = 2
    param_names = ("theta0", "theta1")

    def __init__(self, ys, obs_var: float):
        self.ys = np.asarray(ys, dtype=float)
        self.obs_var = float(obs_var)
        n = self.ys.shape[0]
        self._n = n
        self._sum = self.ys.sum(axis=0)
        self._sumsq = float(np.sum(self.ys * self.ys))
        self._const = -n * math.log(2.0 * math.pi * self.obs_var)

    def log_prior(self, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        return float(-0.5 * (theta @ theta) - math.log(2.0 * math.pi))

    def sample_prior(self, rng) -> np.ndarray:
        return rng.standard_normal(2)

    def loglik(self, theta, rng=None) -> float:
        theta = np.asarray(theta, dtype=float)
        q = self._sumsq - 2.0 * (theta @ self._sum) + self._n * (theta @ theta)
        return float(self._const - 0.5 * q / self.obs_var)

    def posterior_mean(self) -> np.ndarray:
        precision = 1.0 + self._n / self.obs_var
        return self._sum / self.obs_var / precision

    def log_evidence(self) -> float:
        """Each coordinate's observations are N(0, obs_var I + 1 1^T)."""
        n, s2 = self._n, self.obs_var
        log_det = n * math.log(s2) + math.log(1.0 + n / s2)
        total = 0.0
        for d in range(2):
            y = self.ys[:, d]
            quad = (y @ y - y.sum() ** 2 / (s2 + n)) / s2
            total += -0.5 * n * math.log(2.0 * math.pi) - 0.5 * log_det - 0.5 * quad
        return total


# ---------------------------------------------------------------------------
# One call and what comes back.


@dataclass
class RankOut:
    result: object
    rounds: int
    evals: int
    maxrss_kb: int
    pid: int
    trace: dict | None
    run_wall: float


@dataclass
class Op:
    """One sampler call, timed as the user waits for it."""

    run_s: float
    ranks: list[RankOut]

    @property
    def result(self):
        return self.ranks[0].result

    @property
    def evals(self) -> int:
        return sum(r.evals for r in self.ranks)

    @property
    def rounds(self) -> int:
        return max(r.rounds for r in self.ranks)


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _traced(trace: bool, span: str, fn):
    """Run fn() with a fresh recorder bound to this thread when tracing."""
    rec = tracing.Recorder() if trace else None
    tracing.bind(rec)
    token = tracing.open_span(rec, span) if rec else None
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        wall = tracing.close_span(rec, token) if rec else time.perf_counter() - t0
        tracing.bind(None)
    return result, wall, (rec.totals() if rec else None)


@dataclass
class Inputs:
    config: object
    model: object
    dataset: object
    loglik_fn: object = None
    target: object = None


class Workload:
    name: str
    backend: str | None  # SMC2_BACKEND value; None leaves the program's default
    ranks: int

    def setup(self, seed: int) -> Inputs:
        raise NotImplementedError

    def call(self, inputs: Inputs, root: int, trace: bool) -> Op:
        raise NotImplementedError

    def check_op(self, inputs: Inputs, op: Op) -> list[str]:
        raise NotImplementedError

    def check_run(self, inputs: Inputs, ops: list[Op]) -> list[str]:
        return []


class SMC2Workload(Workload):
    def call(self, inputs, root, trace):
        def worker(comm, rs):
            take_evals()
            result, wall, rec = _traced(trace, "smc2.run", lambda: run_smc2(
                inputs.config, inputs.model, inputs.dataset, comm, rs, inputs.loglik_fn))
            return RankOut(result, comm.read_round_counter(), take_evals(),
                           maxrss_kb(), os.getpid(), rec, wall)

        t0 = time.perf_counter()
        ranks = spawn_group(self.ranks, worker, root)
        return Op(time.perf_counter() - t0, ranks)

    def check_op(self, inputs, op):
        res = op.result
        n = inputs.config.n_samples
        problems = []
        for rec in res.iterations:
            if not (1.0 - ESS_SLACK <= rec.ess <= n * (1.0 + ESS_SLACK)):
                problems.append(f"iteration {rec.k}: ESS {rec.ess!r} outside [1, {n}]")
        coeffs = np.asarray(res.recycling_coefficients, dtype=float)
        if np.any(coeffs < 0.0):
            problems.append(f"negative recycling coefficient in {coeffs.tolist()}")
        if not abs(math.fsum(coeffs) - 1.0) <= COEFF_TOL:
            problems.append(f"recycling coefficients sum to {math.fsum(coeffs)!r}")
        if not np.all(np.isfinite(res.recycled_estimate)):
            problems.append(f"recycled estimate {res.recycled_estimate} is not finite")
        return problems


def sir_gate_problems(estimate) -> list[str]:
    """Criterion 5's gates around the data-generating theta."""
    beta, gamma = (float(v) for v in estimate)
    mse = ((beta - TRUTH[0]) ** 2 + (gamma - TRUTH[1]) ** 2) / 2.0
    if abs(beta - TRUTH[0]) <= GATE_BETA and abs(gamma - TRUTH[1]) <= GATE_GAMMA \
            and mse <= GATE_MSE:
        return []
    return [f"estimate beta={beta:.4f} gamma={gamma:.4f} (mse {mse:.2e}) "
            f"outside criterion 5's gates"]


def sir_dataset(seed: int):
    return simulate_sir(SIRConfig(), TRUTH, seed=seed)


class SIRSMC2(SMC2Workload):
    name = "sir-smc2-p2"
    backend = "mpi-like"
    ranks = 2

    def setup(self, seed):
        config = SMC2Config(n_samples=SIR_N, n_iterations=SIR_K,
                            proposal_cov=SIGMA * np.eye(2),
                            pf_config=PFConfig(n_particles=SIR_NX),
                            lkernel="forward_symmetric")
        return Inputs(config=config, model=SIRModel(SIRConfig()),
                      dataset=sir_dataset(seed))

    def check_run(self, inputs, ops):
        # One call misses the gates about once in twenty at N=128, so the
        # gates apply to the mean of the run's independent estimates.
        return sir_gate_problems(np.mean([op.result.recycled_estimate for op in ops], axis=0))


class GaussLKernel(SMC2Workload):
    name = "gauss-lkernel-p2"
    backend = None
    ranks = 2

    def setup(self, seed):
        rng = np.random.default_rng([seed, 1])
        theta_true = rng.standard_normal(2)
        ys = theta_true + math.sqrt(GAUSS_OBS_VAR) * rng.standard_normal((GAUSS_OBS, 2))
        target = GaussTarget(ys, GAUSS_OBS_VAR)
        config = SMC2Config(n_samples=GAUSS_N, n_iterations=GAUSS_K,
                            proposal_cov=SIGMA * np.eye(2),
                            pf_config=PFConfig(n_particles=2),
                            lkernel="approx_optimal_gaussian")
        return Inputs(config=config, model=target, dataset=None,
                      loglik_fn=counted(target.loglik), target=target)

    def check_op(self, inputs, op):
        problems = super().check_op(inputs, op)
        res = op.result
        exact_mean = inputs.target.posterior_mean()
        err = float(np.max(np.abs(res.recycled_estimate - exact_mean)))
        if not err <= GAUSS_MEAN_TOL:
            problems.append(f"recycled estimate {res.recycled_estimate} is {err:.4f} "
                            f"from the exact posterior mean {exact_mean}")
        log_z = math.fsum(rec.logz_increment for rec in res.iterations)
        exact_log_z = inputs.target.log_evidence()
        if not abs(log_z - exact_log_z) <= GAUSS_LOGZ_TOL:
            problems.append(f"summed logz_increment {log_z:.4f} against the exact "
                            f"log evidence {exact_log_z:.4f}")
        return problems


class SIRPMCMC(Workload):
    name = "sir-pmcmc"
    backend = None
    ranks = 1

    def setup(self, seed):
        return Inputs(config=PFConfig(n_particles=SIR_NX), model=SIRModel(SIRConfig()),
                      dataset=sir_dataset(seed))

    def call(self, inputs, root, trace):
        rng = streams.stream(root, streams.MCMC_CHAIN)
        take_evals()
        t0 = time.perf_counter()
        result, wall, rec = _traced(trace, "pmcmc.run", lambda: run_pmcmc(
            inputs.model, inputs.dataset, SIR_N * SIR_K, SIGMA * np.eye(2),
            inputs.config, rng))
        run_s = time.perf_counter() - t0
        return Op(run_s, [RankOut(result, 0, take_evals(), maxrss_kb(), os.getpid(),
                                  rec, wall)])

    def check_op(self, inputs, op):
        chain = op.result.chain
        retained = chain.draws[chain.burn_in:]
        problems = []
        if not np.all((retained >= 0.0) & (retained <= 1.0)):
            problems.append("a retained state lies outside the prior's unit square")
        if not np.all(np.isfinite(chain.log_targets[chain.burn_in:])):
            problems.append("a retained state has a non-finite log target")
        return problems


WORKLOADS = {w.name: w for w in (SIRSMC2(), SIRPMCMC(), GaussLKernel())}


def fingerprint(op: Op) -> tuple:
    """Everything traced and untraced calls must agree on, as exact bytes."""
    res = op.result
    if hasattr(res, "chain"):
        parts = [res.estimate, res.chain.draws, res.chain.log_targets, res.chain.accepted]
    else:
        parts = [res.recycled_estimate, res.final_estimate, res.recycling_coefficients]
        for rec in res.iterations:
            parts += [np.array([rec.ess, rec.l_k, rec.logz_increment, rec.resampled]),
                      rec.estimate]
    return tuple(np.asarray(p).tobytes() for p in parts) + (op.rounds,)
