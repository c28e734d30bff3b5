"""Distributed SMC sampler over model parameters with filter-estimated likelihoods.

The outer sampler maintains N parameter samples ("theta-samples"), each
weighted by an unbiased particle-filter estimate of its marginal likelihood.
All iterations target the same posterior; random-walk proposals move the
samples around and an L-kernel correction keeps the weights valid.  Two
L-kernels are supported:

  forward_symmetric         L = q with a symmetric q, so the kernel terms
                            cancel and the increment is the target ratio.
  approx_optimal_gaussian   a Gaussian fit to the joint (theta_{k-1}, theta_k)
                            population, conditioned on theta_k.

Every reduction over theta-samples goes through the fixed-shape summation
tree (numerics.tree_sum plus the butterfly collectives), so all reported
scalars are independent of the worker count.  Randomness is keyed by
(root_seed, purpose, iteration, global sample index) and never by rank.

Iteration estimates are recycled into one final estimate with weights
proportional to each iteration's effective sample size, which maximizes
the effective sample size of the combined estimator.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import rng as streams
from .comms import Communicator, GlobalSlice, GroupAborted
from .numerics import tree_sum
from .pf import PFConfig, run_pf
from .resample import parallel_redistribute, reset_weights, systematic_choice
from .ssm import param_labels

LKERNELS = ("forward_symmetric", "approx_optimal_gaussian")

_LOG_2PI = np.log(2.0 * np.pi)


def _regularization(cov: np.ndarray) -> float:
    """Diagonal jitter scaled to the matrix, floored for zero-trace inputs."""
    d = cov.shape[0]
    return max(1e-8 * float(np.trace(cov)) / d, 1e-12)


@dataclass(frozen=True)
class SMC2Config:
    """Outer-sampler settings.

    n_samples must be a power of two so the summation tree and the
    redistribution collectives apply; it must also be divisible by the
    worker count at run time.  proposal_cov is validated symmetric
    positive definite here, at configuration time, because a bad matrix
    would otherwise surface as a Cholesky failure mid-run.
    """

    n_samples: int
    n_iterations: int
    proposal_cov: np.ndarray
    pf_config: PFConfig
    lkernel: str = "forward_symmetric"
    resample_fraction: float = 0.5

    def __post_init__(self) -> None:
        n = self.n_samples
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"n_samples must be a power of two >= 2, got {n}")
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be at least 1")
        if not 0.0 < self.resample_fraction <= 1.0:
            raise ValueError("resample_fraction must be in (0, 1]")
        if self.lkernel not in LKERNELS:
            raise ValueError(f"lkernel must be one of {LKERNELS}, got {self.lkernel!r}")
        cov = np.asarray(self.proposal_cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("proposal_cov must be a square matrix")
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12):
            raise ValueError("proposal_cov must be symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("proposal_cov must be positive definite") from exc
        object.__setattr__(self, "proposal_cov", cov)
        object.__setattr__(self, "_proposal_chol", chol)

    @property
    def dim(self) -> int:
        return self.proposal_cov.shape[0]

    @property
    def proposal_chol(self) -> np.ndarray:
        return self._proposal_chol


@dataclass
class Population:
    """Per-rank block of the theta-sample population (structure of arrays).

    log_prior and log_lik are cached with each sample: after a resampling
    pass the copies keep the values of their ancestor, so the target is
    never re-evaluated for an unchanged theta.
    """

    theta: np.ndarray        # (n_local, D)
    log_prior: np.ndarray    # (n_local,)
    log_lik: np.ndarray      # (n_local,)
    log_weights: np.ndarray  # (n_local,)

    @property
    def log_target(self) -> np.ndarray:
        return self.log_prior + self.log_lik


@dataclass(frozen=True)
class GaussianJointFit:
    """Moments of the joint (theta_prev, theta_curr) population Gaussian."""

    mean_prev: np.ndarray       # (D,)
    mean_curr: np.ndarray       # (D,)
    cov_prev_prev: np.ndarray   # (D, D)
    cov_prev_curr: np.ndarray   # (D, D); the curr/prev block is its transpose
    cov_curr_curr: np.ndarray   # (D, D)


@dataclass(frozen=True)
class IterationRecord:
    k: int
    ess: float
    l_k: float
    resampled: bool
    estimate: np.ndarray  # (D,)
    logz_increment: float


@dataclass(frozen=True)
class SMC2Result:
    recycled_estimate: np.ndarray
    final_estimate: np.ndarray
    recycling_coefficients: np.ndarray
    iterations: tuple[IterationRecord, ...]
    param_names: tuple[str, ...]
    elapsed_seconds: float


# ---------------------------------------------------------------------------
# Gaussian densities.


def gaussian_log_density(x, mean, cov) -> float | np.ndarray:
    """log N(x; mean, cov); x and mean broadcast over leading axes.

    A covariance without a Cholesky factor raises: no jitter is added, so
    a density is either the exact one or an error.
    """
    try:
        chol = np.linalg.cholesky(np.asarray(cov, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("covariance is not positive definite") from exc
    return _gaussian_log_density_chol(x, mean, chol)


def _cho_solve_rows(chol, b) -> np.ndarray:
    """x with chol chol^T x = b along the last axis, for a lower-triangular chol.

    Forward then back substitution without BLAS, each in column order and
    scaled by the diagonal's reciprocals, the order of OpenBLAS's
    triangular solve, which keeps the result within rounding of scipy's
    cho_solve.
    """
    x = np.array(b, dtype=float)
    inv_diag = 1.0 / np.diag(chol)
    for k in range(chol.shape[0]):
        x[..., k] *= inv_diag[k]
        x[..., k + 1:] -= x[..., k, None] * chol[k + 1:, k]
    for k in reversed(range(chol.shape[0])):
        x[..., k] *= inv_diag[k]
        x[..., :k] -= x[..., k, None] * chol[k, :k]
    return x


def _gaussian_log_density_chol(x, mean, chol) -> float | np.ndarray:
    """log N(x; mean, chol chol^T) over leading axes; one point gives a float."""
    dev = np.asarray(x, dtype=float) - mean
    d = chol.shape[0]
    alpha = np.empty_like(dev)
    # Forward substitution without BLAS, whose kernel follows the operand
    # shape: a row's density must not depend on how many rows share the call.
    for j in range(d):
        done = np.sum(alpha[..., :j] * chol[j, :j], axis=-1)
        alpha[..., j] = (dev[..., j] - done) / chol[j, j]
    log_det_half = float(np.sum(np.log(np.diag(chol))))
    out = -0.5 * d * _LOG_2PI - log_det_half - 0.5 * np.sum(alpha * alpha, axis=-1)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Single-sample operations.


def propose(theta_prev, config: SMC2Config, rng: np.random.Generator) -> np.ndarray:
    """Random-walk draw theta' = theta + L z with L the proposal Cholesky factor."""
    z = rng.standard_normal(config.dim)
    return np.asarray(theta_prev, dtype=float) + config.proposal_chol @ z


def evaluate_target(model, dataset, theta, pf_config: PFConfig, make_rng,
                    loglik_fn=None) -> tuple[float, float]:
    """Return (log_prior, log_lik) for one theta.

    The likelihood is the particle filter's estimate, or loglik_fn(theta,
    rng) when given.  `make_rng()` opens the stream it draws from.
    Out-of-support thetas short-circuit: no stream is opened, the filter
    is never run and the likelihood slot is reported as -inf (it is
    unused, the target is already zero).  A NaN or +inf log prior or
    log-likelihood raises ValueError naming theta; -inf is a zero density.
    """
    log_prior = _checked("log prior", float(model.log_prior(theta)), theta)
    if log_prior == float("-inf"):
        return log_prior, float("-inf")
    rng = make_rng()
    if loglik_fn is not None:
        log_lik = float(loglik_fn(theta, rng))
    else:
        log_lik = run_pf(model, dataset, theta, pf_config, rng)
    return log_prior, _checked("log-likelihood", log_lik, theta)


def _checked(name: str, value: float, theta) -> float:
    if not value < float("inf"):  # NaN and +inf both fail this comparison
        raise ValueError(f"{name} is {value} at theta {np.asarray(theta).tolist()}")
    return value


# ---------------------------------------------------------------------------
# Population-level operations.  All take per-rank blocks plus the communicator.


def init_population(config: SMC2Config, model, dataset, comm: Communicator,
                    root_seed: int, loglik_fn=None) -> Population:
    """Draw theta-samples from the prior and weight them by their likelihood.

    With the prior as the initial proposal, prior and proposal densities
    cancel and the first log weight is exactly the log-likelihood estimate.
    """
    block = GlobalSlice.for_rank(config.n_samples, comm.size, comm.rank)
    n_local = block.local_items
    dim = config.dim
    theta = np.empty((n_local, dim))
    log_prior = np.empty(n_local)
    log_lik = np.empty(n_local)
    idx = block.global_indices()
    prior_words = streams.seed_words(root_seed, streams.PRIOR_INIT, 1, idx)
    pf_words = streams.seed_words(root_seed, streams.PARTICLE_FILTER, 1, idx)
    for j in range(n_local):
        draw = np.asarray(
            model.sample_prior(streams.stream_from_words(prior_words[j])), dtype=float
        )
        if draw.shape != (dim,):
            raise ValueError(
                f"prior sample has shape {draw.shape}; proposal_cov implies ({dim},)"
            )
        lp, log_lik[j] = evaluate_target(
            model, dataset, draw, config.pf_config,
            partial(streams.stream_from_words, pf_words[j]), loglik_fn,
        )
        if not np.isfinite(lp):
            raise RuntimeError("prior sampler produced a sample outside its own support")
        theta[j] = draw
        log_prior[j] = lp
    return Population(theta=theta, log_prior=log_prior, log_lik=log_lik,
                      log_weights=log_lik.copy())


def fit_gaussian_joint(comm: Communicator, theta_prev, theta) -> GaussianJointFit:
    """Fit a Gaussian to the pooled (theta_prev, theta) pairs across all ranks.

    Two reductions: one for the mean, one for the centered second moments.
    Centering before the outer products keeps the covariance accurate when
    the means are far from zero.  Every pair counts equally (population
    1/N normalization).
    """
    theta_prev = np.asarray(theta_prev, dtype=float)
    theta = np.asarray(theta, dtype=float)
    n_local, dim = theta.shape
    n_total = n_local * comm.size
    if n_total < 2:
        raise ValueError("joint Gaussian fit needs at least two samples")
    z = np.concatenate([theta_prev, theta], axis=1)  # (n_local, 2D)
    scale = 1.0 / n_total
    mean = comm.all_reduce_sum(tree_sum(scale * z))
    dev = z - mean
    outer = scale * dev[:, :, None] * dev[:, None, :]
    cov = comm.all_reduce_sum(tree_sum(outer.reshape(n_local, -1)))
    cov = cov.reshape(2 * dim, 2 * dim)
    return GaussianJointFit(
        mean_prev=mean[:dim],
        mean_curr=mean[dim:],
        cov_prev_prev=cov[:dim, :dim],
        cov_prev_curr=cov[:dim, dim:],
        cov_curr_curr=cov[dim:, dim:],
    )


def lkernel_log_density(theta_prev, theta_curr,
                        fit: GaussianJointFit) -> float | np.ndarray:
    """Gaussian L-kernel density log L(theta_prev | theta_curr).

    Conditions the fitted joint on theta_curr, broadcasting over leading
    axes: (n, D) blocks give n densities, one (D,) pair a float.  The
    curr/curr block is regularized before inversion; the conditional
    covariance is used as-is, so a zero cross-covariance yields the exact
    marginal density.  A conditional covariance without a Cholesky factor
    means the population has collapsed onto too few points for the kernel
    to have a density, and raises.
    """
    dim = fit.mean_prev.shape[0]
    s22 = fit.cov_curr_curr + _regularization(fit.cov_curr_curr) * np.eye(dim)
    try:
        l22 = np.linalg.cholesky(s22)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            "regularized curr/curr covariance is not positive definite"
        ) from exc
    gain = _cho_solve_rows(l22, fit.cov_prev_curr)  # C_pc S22^-1, row by row
    cov_cond = fit.cov_prev_prev - fit.cov_prev_curr @ gain.T
    dev = np.asarray(theta_curr, dtype=float) - fit.mean_curr
    mean_cond = fit.mean_prev + np.sum(gain * dev[..., None, :], axis=-1)  # no BLAS
    try:
        return gaussian_log_density(theta_prev, mean_cond, cov_cond)
    except RuntimeError as exc:
        raise RuntimeError(
            "L-kernel conditional covariance is not positive definite: the "
            "population has collapsed"
        ) from exc


def weight_update(log_weights, log_target_prev, log_target_new,
                  log_l=None, log_q=None) -> np.ndarray:
    """Multiply weights by the target ratio, with optional L-kernel correction.

    forward_symmetric passes log_l = log_q = None (the terms cancel);
    the Gaussian kernel passes both per-sample arrays.  Dead samples
    (weight already zero) stay dead without touching their targets, and
    a zero new target kills the sample.  A live sample whose previous
    target is zero cannot occur (its weight would have been zero), so
    that state is reported as corruption rather than patched over.
    """
    log_weights = np.asarray(log_weights, dtype=float)
    log_target_prev = np.asarray(log_target_prev, dtype=float)
    log_target_new = np.asarray(log_target_new, dtype=float)
    new = np.full_like(log_weights, -np.inf)
    alive = np.isfinite(log_weights)
    if np.any(alive & np.isneginf(log_target_prev)):
        raise RuntimeError(
            "live sample with a zero previous target; population state is inconsistent"
        )
    live = alive & np.isfinite(log_target_new)
    incr = log_target_new[live] - log_target_prev[live]
    if (log_l is None) != (log_q is None):
        raise ValueError("log_l and log_q must be supplied together")
    if log_l is not None:
        log_l = np.asarray(log_l, dtype=float)
        log_q = np.asarray(log_q, dtype=float)
        incr = incr + log_l[live] - log_q[live]
    new[live] = log_weights[live] + incr
    return new


def normalize(comm: Communicator, log_weights) -> tuple[np.ndarray, float]:
    """Return (normalized weights, log of the unnormalized total).

    Max-shifted for stability; one max reduction plus one sum reduction.
    Raises if every weight in the population is zero.
    """
    log_weights = np.asarray(log_weights, dtype=float)
    m = comm.all_reduce_max(float(np.max(log_weights)))
    if m == float("-inf"):
        raise RuntimeError(
            "population degenerate: every theta-sample weight is zero"
        )
    shifted = np.exp(log_weights - m)
    total = float(comm.all_reduce_sum(tree_sum(shifted)))
    return shifted / total, m + float(np.log(total))


def ess(comm: Communicator, normalized) -> float:
    """Effective sample size 1 / sum of squared normalized weights."""
    normalized = np.asarray(normalized, dtype=float)
    denom = float(comm.all_reduce_sum(tree_sum(normalized * normalized)))
    return 1.0 / denom


def estimate(comm: Communicator, theta, normalized) -> np.ndarray:
    """Weighted posterior-mean estimate over the current population."""
    theta = np.asarray(theta, dtype=float)
    normalized = np.asarray(normalized, dtype=float)
    return comm.all_reduce_sum(tree_sum(normalized[:, None] * theta))


def recycling_weight(comm: Communicator, log_weights) -> float:
    """Effective-sample-size weight l_k of the current iteration.

    l_k = exp(2 logsum(w) - logsum(w^2)), computed from max-shifted values;
    the shift cancels in the combination.  A fully degenerate iteration
    gets l_k = 0 so it contributes nothing when recycled.
    """
    log_weights = np.asarray(log_weights, dtype=float)
    m = comm.all_reduce_max(float(np.max(log_weights)))
    if m == float("-inf"):
        return 0.0
    shifted = np.exp(log_weights - m)
    sums = comm.all_reduce_sum(
        np.array([float(tree_sum(shifted)), float(tree_sum(shifted * shifted))])
    )
    return float(np.exp(2.0 * np.log(sums[0]) - np.log(sums[1])))


def recycle(l_values, estimates) -> tuple[np.ndarray, np.ndarray]:
    """Combine per-iteration estimates with weights proportional to l_k.

    Returns (combined estimate, coefficients).  With a single iteration
    the combination is that iteration's estimate.
    """
    l_values = np.asarray(l_values, dtype=float)
    estimates = np.asarray(estimates, dtype=float)
    if l_values.ndim != 1 or estimates.shape[0] != l_values.shape[0]:
        raise ValueError("need one estimate per recycling weight")
    if np.any(l_values < 0.0):
        raise ValueError("recycling weights must be nonnegative")
    total = float(np.sum(l_values))
    if total == 0.0:
        raise RuntimeError("all recycling weights are zero; no iteration produced "
                           "a usable estimate")
    coeffs = l_values / total
    return coeffs @ estimates, coeffs


# ---------------------------------------------------------------------------
# The full sampler.


def run_smc2(config: SMC2Config, model, dataset, comm: Communicator,
             root_seed: int, loglik_fn=None) -> SMC2Result:
    """Run the outer sampler for n_iterations and recycle the estimates.

    loglik_fn, when given, replaces the particle filter with a direct
    log-likelihood function (theta, rng) -> float; used to validate the
    sampler against closed-form targets.

    Per-iteration diagnostics record the effective sample size before any
    resampling, the recycling weight, whether resampling fired, the
    current estimate, and the change in log total weight (against log N
    at the first iteration, so it starts as the first log mean weight).
    """
    t0 = time.perf_counter()
    n_total = config.n_samples
    dim = config.dim
    use_gaussian_kernel = config.lkernel == "approx_optimal_gaussian"

    try:
        pop = init_population(config, model, dataset, comm, root_seed, loglik_fn)
    except GroupAborted:
        raise
    except Exception as exc:
        raise RuntimeError(f"iteration 1: sampler initialization failed: {exc}") from exc

    global_idx = GlobalSlice.for_rank(n_total, comm.size, comm.rank).global_indices()
    prev_log_total = float(np.log(n_total))
    records: list[IterationRecord] = []
    l_values: list[float] = []
    estimates: list[np.ndarray] = []

    for k in range(1, config.n_iterations + 1):
        try:
            if k > 1:
                theta_old = pop.theta
                target_old = pop.log_target
                n_local = theta_old.shape[0]
                theta_new = np.empty_like(theta_old)
                lp_new = np.empty(n_local)
                ll_new = np.empty(n_local)
                prop_words = streams.seed_words(root_seed, streams.PROPOSAL, k, global_idx)
                pf_words = streams.seed_words(root_seed, streams.PARTICLE_FILTER, k,
                                              global_idx)
                for j in range(n_local):
                    theta_new[j] = propose(theta_old[j], config,
                                           streams.stream_from_words(prop_words[j]))
                    lp_new[j], ll_new[j] = evaluate_target(
                        model, dataset, theta_new[j], config.pf_config,
                        partial(streams.stream_from_words, pf_words[j]), loglik_fn,
                    )
                log_l = log_q = None
                if use_gaussian_kernel:
                    fit = fit_gaussian_joint(comm, theta_old, theta_new)
                    log_l = lkernel_log_density(theta_old, theta_new, fit)
                    log_q = _gaussian_log_density_chol(theta_new, theta_old,
                                                       config.proposal_chol)
                pop = Population(
                    theta=theta_new, log_prior=lp_new, log_lik=ll_new,
                    log_weights=weight_update(
                        pop.log_weights, target_old, lp_new + ll_new, log_l, log_q
                    ),
                )

            normalized, log_total = normalize(comm, pop.log_weights)
            l_k = recycling_weight(comm, pop.log_weights)
            est_k = estimate(comm, pop.theta, normalized)
            ess_k = ess(comm, normalized)
            logz_inc = log_total - prev_log_total
            prev_log_total = log_total

            resampled = ess_k < config.resample_fraction * n_total
            if resampled:
                # Same stream on every rank; the choice collective only
                # reads rank 0's value, the rest pass a zero contribution.
                u = streams.stream(root_seed, streams.RESAMPLE_UNIFORM, k=k).random()
                ncopies = systematic_choice(comm, normalized, u)
                payload = np.hstack([
                    pop.theta, pop.log_prior[:, None], pop.log_lik[:, None]
                ])
                payload = parallel_redistribute(comm, payload, ncopies)
                pop = Population(
                    theta=payload[:, :dim],
                    log_prior=payload[:, dim],
                    log_lik=payload[:, dim + 1],
                    log_weights=reset_weights(pop.log_weights, n_total, log_total),
                )
        except GroupAborted:
            raise
        except Exception as exc:
            raise RuntimeError(f"iteration {k}: {exc}") from exc

        records.append(IterationRecord(
            k=k, ess=ess_k, l_k=l_k, resampled=resampled,
            estimate=est_k, logz_increment=logz_inc,
        ))
        l_values.append(l_k)
        estimates.append(est_k)

    recycled, coeffs = recycle(l_values, np.array(estimates))
    return SMC2Result(
        recycled_estimate=recycled,
        final_estimate=estimates[-1],
        recycling_coefficients=coeffs,
        iterations=tuple(records),
        param_names=param_labels(model, dim),
        elapsed_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Diagnostics output.


def diagnostics_header(result: SMC2Result) -> list[str]:
    return (["k", "ess", "l_k", "resampled"]
            + [f"estimate_{name}" for name in result.param_names]
            + ["logZ_increment"])


def diagnostics_rows(result: SMC2Result) -> list[list]:
    rows = []
    for rec in result.iterations:
        rows.append([rec.k, rec.ess, rec.l_k, int(rec.resampled)]
                    + [float(v) for v in rec.estimate]
                    + [rec.logz_increment])
    return rows


def write_diagnostics(path: str, result: SMC2Result) -> None:
    """Write the per-iteration diagnostics as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(diagnostics_header(result))
        writer.writerows(diagnostics_rows(result))
