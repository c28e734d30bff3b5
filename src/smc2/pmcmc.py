"""Particle-MCMC baseline: Metropolis-Hastings over theta with filter likelihoods.

A single random-walk chain whose target density is the prior times an
unbiased particle-filter likelihood estimate.  The estimate for the current
state is cached and reused until a proposal is accepted (pseudo-marginal
discipline); re-running the filter for a retained state would silently
change the invariant distribution.

Intentionally sequential: one chain, one process, no communicator.  This is
the baseline the distributed sampler is compared against.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .pf import PFConfig, run_pf
from .ssm import param_labels

INIT_ATTEMPTS = 50


@dataclass
class Chain:
    """Full chain record: one row per iteration, including the start state."""

    draws: np.ndarray        # (M, D)
    log_targets: np.ndarray  # (M,)
    accepted: np.ndarray     # (M,) 0/1; row 0 is the accepted start state
    burn_in: int

    @property
    def accept_count(self) -> int:
        return int(np.sum(self.accepted[1:]))

    @property
    def retained(self) -> np.ndarray:
        return self.draws[self.burn_in:]


@dataclass(frozen=True)
class PMCMCResult:
    estimate: np.ndarray
    chain: Chain
    acceptance_rate: float
    param_names: tuple[str, ...]
    elapsed_seconds: float


def mh_accept(log_target_new: float, log_target_old: float,
              log_q_ratio: float, rng: np.random.Generator) -> bool:
    """Accept with probability min{1, exp(new - old + q ratio)}.

    A zero new target (-inf) always rejects; the uniform is still drawn so
    the stream advances one step per decision regardless of the outcome.
    """
    if not np.isfinite(log_target_old):
        raise ValueError("current log target must be finite")
    u = rng.random()
    if log_target_new == float("-inf"):
        return False
    log_alpha = log_target_new - log_target_old + log_q_ratio
    return bool(u < np.exp(min(log_alpha, 0.0)))


def run_pmcmc(model, dataset, m_iterations: int, proposal_cov, pf_config: PFConfig,
              rng: np.random.Generator, loglik_fn=None) -> PMCMCResult:
    """Run one pseudo-marginal random-walk chain of m_iterations states.

    The first state is drawn from the prior, retried until its target is
    finite (a hard cap guards against a prior/likelihood mismatch).  The
    first half of the chain is burned in; the estimate is the mean of the
    trailing ceil(M/2) draws.  loglik_fn, when given, replaces the filter
    with a direct (theta, rng) -> float likelihood.
    """
    if m_iterations < 2:
        raise ValueError("need at least 2 chain iterations")
    cov = np.asarray(proposal_cov, dtype=float)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("proposal covariance must be positive definite") from exc
    dim = cov.shape[0]

    def loglik(theta) -> float:
        if loglik_fn is not None:
            return float(loglik_fn(theta, rng))
        return run_pf(model, dataset, theta, pf_config, rng)

    t0 = time.perf_counter()
    theta = None
    log_target = float("-inf")
    for _ in range(INIT_ATTEMPTS):
        candidate = np.asarray(model.sample_prior(rng), dtype=float)
        if candidate.shape != (dim,):
            raise ValueError(
                f"prior sample has shape {candidate.shape}; proposal implies ({dim},)"
            )
        log_prior = float(model.log_prior(candidate))
        if log_prior == float("-inf"):
            continue
        log_target = log_prior + loglik(candidate)
        if np.isfinite(log_target):
            theta = candidate
            break
    if theta is None:
        raise RuntimeError(
            f"no finite-target start state after {INIT_ATTEMPTS} prior draws"
        )

    draws = np.empty((m_iterations, dim))
    log_targets = np.empty(m_iterations)
    accepted = np.zeros(m_iterations, dtype=np.int64)
    draws[0] = theta
    log_targets[0] = log_target
    accepted[0] = 1

    for m in range(1, m_iterations):
        proposal = theta + chol @ rng.standard_normal(dim)
        log_prior = float(model.log_prior(proposal))
        if log_prior == float("-inf"):
            # out of support: reject without spending a filter run
            take = False
        else:
            log_target_new = log_prior + loglik(proposal)
            take = mh_accept(log_target_new, log_target, 0.0, rng)
        if take:
            theta = proposal
            log_target = log_target_new
            accepted[m] = 1
        draws[m] = theta
        log_targets[m] = log_target

    burn_in = m_iterations // 2
    chain = Chain(draws=draws, log_targets=log_targets, accepted=accepted,
                  burn_in=burn_in)
    estimate = chain.retained.mean(axis=0)
    return PMCMCResult(
        estimate=estimate,
        chain=chain,
        acceptance_rate=chain.accept_count / (m_iterations - 1),
        param_names=param_labels(model, dim),
        elapsed_seconds=time.perf_counter() - t0,
    )


def write_chain(path: str, result: PMCMCResult) -> None:
    """Dump the chain as CSV, one row per iteration."""
    chain = result.chain
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", *result.param_names, "log_target", "accepted"])
        for m in range(chain.draws.shape[0]):
            writer.writerow([m, *(float(v) for v in chain.draws[m]),
                             float(chain.log_targets[m]), int(chain.accepted[m])])
