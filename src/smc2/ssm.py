"""State-space models: stochastic epidemic and linear-Gaussian test models.

A model bundles everything the filters need: how to draw an initial state,
how to propagate a block of particles one step, and how to score an
observation against each particle, plus the parameter prior used by the
calibration layer.  All particle operations are vectorized over an
(n_particles, state_dim) block.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np


class SSMDefinition:
    """Interface the filters program against.

    state_dim / param_dim are fixed per model; param_names label the
    parameter vector components for reports.  States are (n, state_dim)
    arrays; `theta` is a length-param_dim vector.
    """

    state_dim: int
    param_dim: int
    param_names: tuple[str, ...]

    def sample_initial(self, theta, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def sample_transition(self, states, theta, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def observation_log_density(self, y, states, theta) -> np.ndarray:
        raise NotImplementedError

    def sample_observation(self, states, theta, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def log_prior(self, theta) -> float:
        raise NotImplementedError

    def sample_prior(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


def param_labels(model, dim: int) -> tuple[str, ...]:
    """The model's param_names, or theta0, theta1, ... when they do not fit dim."""
    names = tuple(getattr(model, "param_names", ()) or ())
    if len(names) != dim:
        names = tuple(f"theta{j}" for j in range(dim))
    return names


# ---------------------------------------------------------------------------
# Stochastic SIR epidemic with Poisson-observed infection counts.


@dataclass(frozen=True)
class SIRConfig:
    """Closed-population epidemic setup: size, initial infections, horizon."""

    n_pop: int = 10_000
    i0: int = 3
    n_steps: int = 30


def sir_leave_probabilities(theta, s, i, n_pop: int, reed_frost_standard: bool = False):
    """Per-step probabilities of leaving S and leaving I.

    By default the infection pressure inside the exponent is
    beta * I * S / n_pop; with reed_frost_standard it is the conventional
    per-susceptible beta * I / n_pop.  Recovery is state-independent.
    """
    beta, gamma = float(theta[0]), float(theta[1])
    if reed_frost_standard:
        rate = beta * np.asarray(i, dtype=float) / n_pop
    else:
        rate = beta * np.asarray(i, dtype=float) * np.asarray(s, dtype=float) / n_pop
    p_si = -np.expm1(-rate)
    p_ir = float(-np.expm1(-gamma))
    return p_si, p_ir


def sir_transition(states, theta, n_pop: int, rng: np.random.Generator,
                   reed_frost_standard: bool = False) -> np.ndarray:
    """One binomial step of the epidemic for a block of particles.

    states is (n, 3) int [S, I, R]; column sums are preserved exactly.
    """
    s = states[:, 0]
    i = states[:, 1]
    p_si, p_ir = sir_leave_probabilities(theta, s, i, n_pop, reed_frost_standard)
    n_si = rng.binomial(s, p_si)
    n_ir = rng.binomial(i, p_ir)
    out = states.copy()
    out[:, 0] -= n_si
    out[:, 1] += n_si - n_ir
    out[:, 2] += n_ir
    return out


# Stirling-series coefficients and log(sqrt(2 pi)) of cephes `lgam`.
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LS2PI = 0.91893853320467274178


@functools.lru_cache(maxsize=4096)
def _log_factorial(y: int) -> float:
    """log y! for an integer y >= 0, bitwise scipy's gammaln(y + 1).

    Follows cephes `lgam`, which scipy uses: below 13 the product of the
    integers is exact, above it the Stirling series with cephes' own
    coefficients and cut-offs.
    """
    if y < 12:
        return math.log(float(math.factorial(y)))
    x = float(y + 1)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    poly = _LGAM_A[0]
    for coef in _LGAM_A[1:]:
        poly = poly * p + coef
    return q + poly / x


def sir_observation_logpdf(y, infected) -> np.ndarray:
    """Poisson log-pmf of count y given per-particle intensities I.

    I = 0 is an absorbing point mass at zero: log-density 0 when y = 0,
    -inf otherwise.
    """
    i = np.asarray(infected, dtype=float)
    y = int(y)
    if i.size and i.min() > 0:
        return y * np.log(i) - i - _log_factorial(y)
    out = np.full(i.shape, -np.inf)
    positive = i > 0
    with np.errstate(divide="ignore"):
        out[positive] = y * np.log(i[positive]) - i[positive] - _log_factorial(y)
    if y == 0:
        out[~positive] = 0.0
    return out


class SIRModel(SSMDefinition):
    """SIR epidemic with uniform [0, 1]^2 prior on (beta, gamma)."""

    state_dim = 3
    param_dim = 2
    param_names = ("beta", "gamma")

    def __init__(self, config: SIRConfig = SIRConfig(), reed_frost_standard: bool = False):
        self.config = config
        self.reed_frost_standard = reed_frost_standard

    def sample_initial(self, theta, n: int, rng: np.random.Generator) -> np.ndarray:
        cfg = self.config
        start = np.array([cfg.n_pop - cfg.i0, cfg.i0, 0], dtype=np.int64)
        return np.tile(start, (n, 1))

    def sample_transition(self, states, theta, rng: np.random.Generator) -> np.ndarray:
        return sir_transition(states, theta, self.config.n_pop, rng,
                              self.reed_frost_standard)

    def observation_log_density(self, y, states, theta) -> np.ndarray:
        return sir_observation_logpdf(y, states[:, 1])

    def sample_observation(self, states, theta, rng: np.random.Generator) -> np.ndarray:
        return rng.poisson(states[:, 1])

    def log_prior(self, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        if np.all((theta >= 0.0) & (theta <= 1.0)):
            return 0.0
        return float("-inf")

    def sample_prior(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0.0, 1.0, size=2)


# ---------------------------------------------------------------------------
# Scalar linear-Gaussian model with an exact-likelihood recursion.


class LinearGaussianModel(SSMDefinition):
    """x_t = a x_{t-1} + N(0, q), y_t = x_t + N(0, r), x_1 ~ N(0, q)."""

    state_dim = 1
    param_dim = 1
    param_names = ("a",)

    def __init__(self, a: float, q: float, r: float):
        if q <= 0 or r <= 0:
            raise ValueError("q and r must be positive")
        self.a = float(a)
        self.q = float(q)
        self.r = float(r)

    def sample_initial(self, theta, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(0.0, np.sqrt(self.q), size=(n, 1))

    def sample_transition(self, states, theta, rng: np.random.Generator) -> np.ndarray:
        noise = rng.normal(0.0, np.sqrt(self.q), size=states.shape)
        return self.a * states + noise

    def observation_log_density(self, y, states, theta) -> np.ndarray:
        resid = float(y) - states[:, 0]
        return -0.5 * (np.log(2.0 * np.pi * self.r) + resid * resid / self.r)

    def sample_observation(self, states, theta, rng: np.random.Generator) -> np.ndarray:
        return states[:, 0] + rng.normal(0.0, np.sqrt(self.r), size=states.shape[0])

    def log_prior(self, theta) -> float:
        return 0.0

    def sample_prior(self, rng: np.random.Generator) -> np.ndarray:
        return np.array([self.a])


def kalman_loglik(ys, a: float, q: float, r: float) -> float:
    """Exact log-likelihood of the scalar linear-Gaussian model.

    Standard predict/update recursion with x_1 ~ N(0, q), matching
    LinearGaussianModel exactly; this is the reference the particle
    filter is validated against.
    """
    ys = np.asarray(ys, dtype=float)
    mean, var = 0.0, 0.0
    loglik = 0.0
    for t, y in enumerate(ys):
        if t == 0:
            pred_mean, pred_var = 0.0, q
        else:
            pred_mean = a * mean
            pred_var = a * a * var + q
        s = pred_var + r
        resid = y - pred_mean
        loglik += -0.5 * (np.log(2.0 * np.pi * s) + resid * resid / s)
        gain = pred_var / s
        mean = pred_mean + gain * resid
        var = (1.0 - gain) * pred_var
    return float(loglik)


# ---------------------------------------------------------------------------
# Synthetic data and its on-disk format.


@dataclass
class Dataset:
    """Observations with the ground truth that generated them."""

    y: np.ndarray
    theta_true: np.ndarray
    seed: int
    meta: dict = field(default_factory=dict)


def simulate(model: SSMDefinition, theta, n_steps: int, seed: int) -> Dataset:
    """Draw one latent trajectory and its observations."""
    from . import rng as rng_mod

    gen = rng_mod.stream(seed, rng_mod.DATASET)
    theta = np.asarray(theta, dtype=float)
    state = model.sample_initial(theta, 1, gen)
    ys = np.empty(n_steps, dtype=float)
    for t in range(n_steps):
        if t > 0:
            state = model.sample_transition(state, theta, gen)
        ys[t] = model.sample_observation(state, theta, gen)[0]
    return Dataset(y=ys, theta_true=theta.copy(), seed=seed, meta={})


def simulate_sir(config: SIRConfig, theta, seed: int,
                 reed_frost_standard: bool = False) -> Dataset:
    """Simulate the epidemic model and record its setup in the metadata."""
    model = SIRModel(config, reed_frost_standard)
    ds = simulate(model, theta, config.n_steps, seed)
    ds.y = np.asarray(ds.y, dtype=float)
    ds.meta = {
        "n_pop": config.n_pop,
        "i0": config.i0,
        "n_steps": config.n_steps,
        "reed_frost_standard": reed_frost_standard,
    }
    return ds


def write_dataset(path: str, dataset: Dataset) -> None:
    """Write observations as CSV rows t,y plus a key=value .meta sidecar."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y"])
        for t, y in enumerate(dataset.y, start=1):
            writer.writerow([t, _format_number(y)])
    with open(path + ".meta", "w") as fh:
        fh.write(f"seed={dataset.seed}\n")
        fh.write("theta_true=" + ",".join(repr(float(v)) for v in dataset.theta_true) + "\n")
        for key, value in dataset.meta.items():
            fh.write(f"{key}={value}\n")


def read_dataset(path: str) -> Dataset:
    """Read a dataset written by write_dataset."""
    ys = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["t", "y"]:
            raise ValueError(f"unexpected dataset header {header}")
        for row in reader:
            ys.append(float(row[1]))
    meta: dict = {}
    seed = 0
    theta_true = np.array([])
    with open(path + ".meta") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            if key == "seed":
                seed = int(value)
            elif key == "theta_true":
                theta_true = np.array([float(v) for v in value.split(",")])
            else:
                meta[key] = _parse_meta_value(value)
    return Dataset(y=np.asarray(ys, dtype=float), theta_true=theta_true,
                   seed=seed, meta=meta)


def _format_number(value: float) -> str:
    return repr(int(value)) if float(value).is_integer() else repr(float(value))


def _parse_meta_value(value: str):
    if value in ("True", "False"):
        return value == "True"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value
