"""Bootstrap particle filter with adaptive multinomial resampling.

Particles are propagated with the model transition and weighted by the
observation density; the transition doubles as the proposal, so the
proposal and transition densities cancel in the weight recursion.  When
the effective sample size drops below a fraction of the particle count,
the cloud is resampled multinomially and every survivor's unnormalized
weight is reset to the pre-resampling mean, which keeps the running
likelihood estimate unchanged across the resampling step.

The end product is `run_pf`, an unbiased estimator of the marginal
likelihood p(y_{1:T} | theta).  Both outer samplers treat that estimate
as their pseudo-marginal target, so this module must never exchange
state across particle-filter instances: each instance belongs to one
theta sample and one RNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import log_sum_exp
from .ssm import Dataset, SSMDefinition

__all__ = [
    "PFConfig",
    "ParticleCloud",
    "multinomial_resample",
    "pf_step",
    "run_pf",
]


@dataclass(frozen=True)
class PFConfig:
    """Particle count and the ESS fraction that triggers resampling."""

    n_particles: int
    resample_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.n_particles < 2:
            raise ValueError("n_particles must be at least 2")
        if not 0.0 < self.resample_fraction <= 1.0:
            raise ValueError("resample_fraction must be in (0, 1]")


@dataclass
class ParticleCloud:
    """States and log unnormalized weights at one time index.

    states has one row per particle; log_weights may contain -inf for
    particles killed by the observation density, but never NaN.  A cloud
    whose weights are all -inf is degenerate: it carries zero likelihood,
    and `pf_step` returns it with alive=False.
    """

    states: np.ndarray
    log_weights: np.ndarray
    alive: bool = True


def _max_log_weight(lw: np.ndarray):
    """Largest log weight; NaN (or +inf, an infinite density) is an error."""
    m = lw.max()
    if not m < np.inf:
        raise ValueError("log weights contain NaN or +inf")
    return m


def _log_sum_and_ess(lw: np.ndarray):
    """lse(lw), the ESS exp(2*lse(lw) - lse(2*lw)), and the pair (terms
    exp(lw - max(lw)), their sum); None if every weight is -inf.

    One max serves both sums.  Each term is the expression `log_sum_exp`
    evaluates (max(2*lw) is 2*max(lw), and 2*lw - 2*m is 2*(lw - m)
    exactly), so the ESS and the resampling decision match it bit for bit.
    The pair is what `multinomial_resample` would compute from lw, so its
    cumulative weights can start from it.
    """
    m = _max_log_weight(lw)
    if m == -np.inf:
        return None
    shifted = lw - m
    terms = np.exp(shifted)
    total = terms.sum()
    lse = m + np.log(total)
    lse_sq = 2.0 * m + np.log(np.exp(2.0 * shifted).sum())
    return lse, float(np.exp(2.0 * lse - lse_sq)), (terms, total)


def multinomial_resample(log_weights, rng: np.random.Generator, terms=None) -> np.ndarray:
    """Draw len(log_weights) ancestor indices i.i.d. from the normalized
    weights, returned in draw order.

    `terms`, if given, is the pair (exp(lw - max(lw)), its sum) for these
    log weights, already computed by the caller; the draws are the same.
    """
    if terms is None:
        lw = np.asarray(log_weights, dtype=float)
        m = _max_log_weight(lw)
        if m == -np.inf:
            raise ValueError("degenerate cloud: all log weights are -inf")
        w = np.exp(lw - m)
        terms = w, w.sum()
    w, total = terms
    cdf = np.cumsum(w / total)
    cdf[-1] = 1.0  # round-off must not exclude the last index
    draws = rng.random(w.shape[0])
    return np.searchsorted(cdf, draws, side="right").astype(np.int64)


def pf_step(
    cloud: ParticleCloud | None,
    y_t,
    theta,
    model: SSMDefinition,
    config: PFConfig,
    rng: np.random.Generator,
) -> ParticleCloud:
    """Advance the filter by one observation.

    Pass cloud=None to initialize: particles are drawn from the initial
    law and weighted by the observation density alone.  After the weight
    update, if ESS < resample_fraction * n_particles the cloud is
    resampled and every particle's unnormalized weight becomes the
    pre-resampling mean weight (in log domain, lse(lw) - ln n).

    A cloud whose weights are all -inf is returned as-is, with
    alive=False; the caller is expected to read it as zero likelihood.  A
    NaN or +inf weight raises ValueError.
    """
    n = config.n_particles
    theta = np.asarray(theta, dtype=float)
    if cloud is None:
        states = model.sample_initial(theta, n, rng)
        log_prev = np.zeros(n)
    else:
        states = model.sample_transition(cloud.states, theta, rng)
        log_prev = cloud.log_weights
    log_weights = log_prev + model.observation_log_density(y_t, states, theta)
    summary = _log_sum_and_ess(log_weights)
    if summary is None:
        return ParticleCloud(states=states, log_weights=log_weights, alive=False)
    lse, ess, terms = summary
    if ess < config.resample_fraction * n:
        idx = multinomial_resample(log_weights, rng, terms=terms)
        states = states.take(idx, axis=0)
        log_weights = np.full(n, lse - np.log(n))
    return ParticleCloud(states=states, log_weights=log_weights)


def run_pf(
    model: SSMDefinition,
    observations,
    theta,
    config: PFConfig,
    rng: np.random.Generator,
) -> float:
    """Marginal log-likelihood estimate log(1/n * sum of final weights).

    observations may be a Dataset or a plain observation sequence.
    Returns -inf as soon as every particle weight vanishes at some step;
    -inf is a valid value (zero likelihood), not an error.
    """
    ys = observations.y if isinstance(observations, Dataset) else np.asarray(observations)
    if len(ys) < 1:
        raise ValueError("need at least one observation")
    cloud: ParticleCloud | None = None
    for y_t in ys:
        cloud = pf_step(cloud, y_t, theta, model, config, rng)
        if not cloud.alive:
            return float("-inf")
    return float(log_sum_exp(cloud.log_weights) - np.log(config.n_particles))
