"""Particle filter tests: frozen examples, Kalman oracle, invariants."""

import numpy as np
import pytest

from smc2 import rng as rngmod
from smc2.numerics import log_sum_exp
from smc2.pf import (
    ParticleCloud,
    PFConfig,
    _log_sum_and_ess,
    multinomial_resample,
    pf_step,
    run_pf,
)
from smc2.ssm import (
    LinearGaussianModel,
    SIRConfig,
    SIRModel,
    SSMDefinition,
    kalman_loglik,
    simulate,
    simulate_sir,
)


class ConstantDensityModel(SSMDefinition):
    """Identity transition; every state has the same observation density."""

    state_dim = 1
    param_dim = 0
    param_names = ()

    def __init__(self, log_c: float):
        self.log_c = log_c

    def sample_initial(self, theta, n, rng):
        return np.zeros((n, 1))

    def sample_transition(self, states, theta, rng):
        return states

    def observation_log_density(self, y, states, theta):
        return np.full(states.shape[0], self.log_c)


class StateDensityModel(SSMDefinition):
    """Identity transition; the log observation density is the first state
    coordinate, making the weight update fully deterministic."""

    state_dim = 1
    param_dim = 0
    param_names = ()

    def sample_initial(self, theta, n, rng):
        return np.zeros((n, 1))

    def sample_transition(self, states, theta, rng):
        return states

    def observation_log_density(self, y, states, theta):
        return states[:, 0].copy()


class TestPFConfig:
    def test_rejects_single_particle(self):
        with pytest.raises(ValueError):
            PFConfig(n_particles=1)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            PFConfig(n_particles=8, resample_fraction=0.0)
        with pytest.raises(ValueError):
            PFConfig(n_particles=8, resample_fraction=1.2)

    def test_accepts_fraction_one(self):
        assert PFConfig(n_particles=8, resample_fraction=1.0).resample_fraction == 1.0


class TestESS:
    """The ESS half of `_log_sum_and_ess`, the one pass `pf_step` makes."""

    @staticmethod
    def ess(lw):
        return _log_sum_and_ess(np.asarray(lw, dtype=float))[1]

    def test_uniform_weights(self):
        assert self.ess(np.zeros(500)) == pytest.approx(500.0, rel=1e-12)
        # Any common offset is a normalization constant and cancels.
        assert self.ess(np.full(500, -7.25)) == pytest.approx(500.0, rel=1e-12)

    def test_single_survivor(self):
        lw = np.full(64, -np.inf)
        lw[17] = -3.0
        assert self.ess(lw) == pytest.approx(1.0, rel=1e-12)

    def test_frozen_value(self):
        lw = np.log(np.array([0.5, 0.25, 0.125, 0.125]))
        assert self.ess(lw) == pytest.approx(32.0 / 11.0, rel=1e-12)
        assert self.ess(lw) == pytest.approx(2.9091, abs=5e-5)
        assert _log_sum_and_ess(lw)[0] == pytest.approx(0.0, abs=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            lw = rng.normal(size=40)
            assert self.ess(lw + 123.4) == pytest.approx(self.ess(lw), rel=1e-10)

    def test_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            lw = rng.normal(scale=rng.uniform(0.1, 10.0), size=n)
            ess = self.ess(lw)
            assert 1.0 <= ess <= n + 1e-9

    def test_degenerate_is_none(self):
        assert _log_sum_and_ess(np.full(8, -np.inf)) is None

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            _log_sum_and_ess(np.array([0.0, np.nan]))


def numpy_ess(lw) -> float:
    """Independent oracle: 1 / sum of squared normalized weights."""
    w = np.exp(lw - np.max(lw))
    w_norm = w / w.sum()
    return float(1.0 / np.sum(w_norm**2))


class TestMultinomialResample:
    def test_point_mass(self):
        lw = np.array([0.0, -np.inf, -np.inf])
        idx = multinomial_resample(lw, np.random.default_rng(0))
        assert idx.shape == (3,)
        assert np.all(idx == 0)

    def test_deterministic_given_seed(self):
        lw = np.log(np.array([0.4, 0.3, 0.2, 0.1]))
        a = multinomial_resample(lw, np.random.default_rng(42))
        b = multinomial_resample(lw, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_uniform_proportions(self):
        # 1e5 i.i.d. draws accumulated over repeated calls on a 20-particle
        # cloud; each index's count stays within 4 binomial sigma.
        n = 20
        calls = 5000
        lw = np.zeros(n)
        rng = np.random.default_rng(123)
        counts = np.zeros(n, dtype=np.int64)
        for _ in range(calls):
            counts += np.bincount(multinomial_resample(lw, rng), minlength=n)
        total = n * calls
        p = 1.0 / n
        sigma = np.sqrt(total * p * (1.0 - p))
        assert np.all(np.abs(counts - total * p) <= 4.0 * sigma)

    def test_skewed_proportions(self):
        weights = np.array([0.5, 0.3, 0.15, 0.05])
        lw = np.log(weights)
        rng = np.random.default_rng(321)
        counts = np.zeros(4, dtype=np.int64)
        draws = 0
        for _ in range(25000):
            counts += np.bincount(multinomial_resample(lw, rng), minlength=4)
            draws += 4
        sigma = np.sqrt(draws * weights * (1.0 - weights))
        assert np.all(np.abs(counts - draws * weights) <= 4.0 * sigma)

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            multinomial_resample(np.full(4, -np.inf), np.random.default_rng(0))


class TestPFStep:
    def test_initialization(self):
        model = ConstantDensityModel(np.log(0.3))
        cfg = PFConfig(n_particles=64)
        cloud = pf_step(None, 0.0, np.zeros(0), model, cfg, np.random.default_rng(0))
        assert cloud.states.shape == (64, 1)
        np.testing.assert_allclose(cloud.log_weights, np.log(0.3))

    def test_constant_density_shifts_weights_uniformly(self):
        model = ConstantDensityModel(np.log(0.3))
        cfg = PFConfig(n_particles=64)
        # Mild skew keeps ESS above the resampling threshold.
        lw = -0.01 * np.arange(64.0)
        cloud = ParticleCloud(states=np.zeros((64, 1)), log_weights=lw.copy())
        ess_before = numpy_ess(lw)
        assert ess_before >= 32.0
        out = pf_step(cloud, 0.0, np.zeros(0), model, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(out.log_weights, lw + np.log(0.3))
        assert numpy_ess(out.log_weights) == pytest.approx(ess_before, rel=1e-12)

    def test_resampling_bookkeeping(self):
        # One particle carries essentially all the weight, forcing a
        # resample whose bookkeeping is checked exactly: uniform
        # unnormalized weights at the pre-resampling log-mean, total
        # weight preserved, ESS restored to n.
        n = 64
        model = StateDensityModel()
        cfg = PFConfig(n_particles=n)
        states = np.zeros((n, 1))
        states[0, 0] = 10.0
        cloud = ParticleCloud(states=states, log_weights=np.zeros(n))
        expected_lw = states[:, 0].copy()
        assert numpy_ess(expected_lw) < n / 2
        out = pf_step(cloud, 0.0, np.zeros(0), model, cfg, np.random.default_rng(5))
        mean_log = log_sum_exp(expected_lw) - np.log(n)
        np.testing.assert_allclose(out.log_weights, mean_log, rtol=0, atol=0)
        assert log_sum_exp(out.log_weights) == pytest.approx(
            log_sum_exp(expected_lw), abs=1e-12
        )
        assert numpy_ess(out.log_weights) == pytest.approx(float(n), rel=1e-12)
        # Ancestors are drawn from the updated weights, so nearly every
        # copy comes from the dominant particle.
        assert set(np.unique(out.states[:, 0])) <= {0.0, 10.0}
        assert np.sum(out.states[:, 0] == 10.0) >= n // 2

    def test_degenerate_cloud_passed_through(self):
        model = ConstantDensityModel(-np.inf)
        cfg = PFConfig(n_particles=8)
        cloud = pf_step(None, 0.0, np.zeros(0), model, cfg, np.random.default_rng(0))
        assert np.all(np.isneginf(cloud.log_weights))
        assert not cloud.alive
        live = pf_step(None, 0.0, np.zeros(0), ConstantDensityModel(0.0), cfg,
                       np.random.default_rng(0))
        assert live.alive

    @pytest.mark.parametrize("log_c", [np.nan, np.inf])
    def test_non_finite_weight_raises(self, log_c):
        model = ConstantDensityModel(log_c)
        cfg = PFConfig(n_particles=8)
        with pytest.raises(ValueError, match="NaN or \\+inf"):
            pf_step(None, 0.0, np.zeros(0), model, cfg, np.random.default_rng(0))


class TestRunPF:
    def test_constant_density_product(self):
        model = ConstantDensityModel(np.log(0.3))
        cfg = PFConfig(n_particles=64)
        out = run_pf(model, np.zeros(7), np.zeros(0), cfg, np.random.default_rng(1))
        assert out == pytest.approx(7 * np.log(0.3), abs=1e-12)

    def test_accepts_dataset_wrapper(self):
        model = LinearGaussianModel(0.9, 1.0, 1.0)
        data = simulate(model, np.array([0.9]), n_steps=12, seed=3)
        cfg = PFConfig(n_particles=128)
        a = run_pf(model, data, np.array([0.9]), cfg, np.random.default_rng(9))
        b = run_pf(model, data.y, np.array([0.9]), cfg, np.random.default_rng(9))
        assert a == b

    def test_matches_kalman_likelihood(self):
        model = LinearGaussianModel(0.9, 1.0, 1.0)
        data = simulate(model, np.array([0.9]), n_steps=20, seed=101)
        oracle = kalman_loglik(data.y, 0.9, 1.0, 1.0)
        cfg = PFConfig(n_particles=2000)
        estimates = [
            run_pf(model, data.y, np.array([0.9]), cfg,
                   rngmod.stream(2024, rngmod.PARTICLE_FILTER, k=r))
            for r in range(50)
        ]
        assert np.mean(estimates) == pytest.approx(oracle, rel=0.01)

    def test_impossible_data_gives_zero_likelihood(self):
        # No infections can ever occur when i0 = 0, so a positive count
        # has zero probability under every particle.
        model = SIRModel(SIRConfig(n_pop=1000, i0=0, n_steps=3))
        cfg = PFConfig(n_particles=32)
        theta = np.array([0.5, 0.2])
        out = run_pf(model, np.array([5, 3, 2]), theta, cfg, np.random.default_rng(0))
        assert out == -np.inf

    def test_degeneracy_mid_run(self):
        model = SIRModel(SIRConfig(n_pop=1000, i0=0, n_steps=3))
        cfg = PFConfig(n_particles=32)
        theta = np.array([0.5, 0.2])
        out = run_pf(model, np.array([0, 0, 5]), theta, cfg, np.random.default_rng(0))
        assert out == -np.inf

    def test_empty_observations_rejected(self):
        model = ConstantDensityModel(0.0)
        with pytest.raises(ValueError):
            run_pf(model, np.zeros(0), np.zeros(0), PFConfig(8), np.random.default_rng(0))


# float.hex() of run_pf recorded before the filter's weight pass was fused;
# the fused pass must reproduce every resampling decision and every bit.
SIR_PINS = {
    (0.5, (0.85, 0.2)): "-0x1.1f3e4ca1acdc2p+7",
    (0.5, (0.3, 0.5)): "-0x1.6698aac51a0d1p+14",
    (0.5, (0.0, 1.0)): "-0x1.4bc1581475847p+18",
    (1.0, (0.85, 0.2)): "-0x1.1efa58e221bffp+7",
    (1.0, (0.3, 0.5)): "-0x1.6698aac51a0d1p+14",
    (1.0, (0.0, 1.0)): "-0x1.4bc1581475847p+18",
}
LG_PINS = {0.5: "-0x1.3eee13108af36p+5", 1.0: "-0x1.37123483dac70p+5"}


class TestFrozenLikelihoods:
    @pytest.mark.parametrize(
        "fraction, theta", sorted(SIR_PINS),
        ids=[f"frac{f}-beta{b}-gamma{g}" for f, (b, g) in sorted(SIR_PINS)])
    def test_sir_bitwise(self, fraction, theta):
        data = simulate_sir(SIRConfig(), (0.85, 0.2), seed=1)
        cfg = PFConfig(n_particles=500, resample_fraction=fraction)
        out = run_pf(SIRModel(SIRConfig()), data, np.array(theta), cfg,
                     rngmod.stream(11, rngmod.PARTICLE_FILTER, k=1))
        assert out.hex() == SIR_PINS[fraction, theta]

    @pytest.mark.parametrize("fraction", sorted(LG_PINS))
    def test_linear_gaussian_bitwise(self, fraction):
        model = LinearGaussianModel(0.9, 1.0, 1.0)
        data = simulate(model, np.array([0.9]), n_steps=20, seed=101)
        cfg = PFConfig(n_particles=256, resample_fraction=fraction)
        out = run_pf(model, data, np.array([0.9]), cfg,
                     rngmod.stream(11, rngmod.PARTICLE_FILTER, k=2))
        assert out.hex() == LG_PINS[fraction]

    def test_impossible_data_bitwise(self):
        model = SIRModel(SIRConfig(n_pop=1000, i0=0, n_steps=3))
        out = run_pf(model, np.array([5, 3, 2]), np.array([0.5, 0.2]),
                     PFConfig(n_particles=32), np.random.default_rng(0))
        assert out.hex() == "-inf"


class TestInvariants:
    def test_weight_sum_preserved_across_resampling(self):
        # Deterministic weight updates expose the pre-resampling total
        # exactly; resampling must not change it.
        n = 32
        model = StateDensityModel()
        cfg = PFConfig(n_particles=n)
        rng = np.random.default_rng(17)
        triggered = 0
        for _ in range(25):
            states = rng.normal(scale=3.0, size=(n, 1))
            prev = rng.normal(size=n)
            cloud = ParticleCloud(states=states.copy(), log_weights=prev.copy())
            expected = prev + states[:, 0]
            out = pf_step(cloud, 0.0, np.zeros(0), model, cfg, rng)
            if numpy_ess(expected) < n / 2:
                triggered += 1
                assert log_sum_exp(out.log_weights) == pytest.approx(
                    log_sum_exp(expected), abs=1e-12
                )
            else:
                np.testing.assert_array_equal(out.log_weights, expected)
        assert triggered >= 5

    def test_unbiasedness_ratio(self):
        model = LinearGaussianModel(0.9, 1.0, 1.0)
        data = simulate(model, np.array([0.9]), n_steps=20, seed=77)
        oracle = kalman_loglik(data.y, 0.9, 1.0, 1.0)
        cfg = PFConfig(n_particles=2000)
        deltas = np.array([
            run_pf(model, data.y, np.array([0.9]), cfg,
                   rngmod.stream(4096, rngmod.PARTICLE_FILTER, k=r)) - oracle
            for r in range(200)
        ])
        ratio = float(np.mean(np.exp(deltas)))
        assert 0.9 <= ratio <= 1.1

    def test_variance_shrinks_with_more_particles(self):
        model = LinearGaussianModel(0.9, 1.0, 1.0)
        variances = {50: [], 200: [], 1000: []}
        for d in range(3):
            data = simulate(model, np.array([0.9]), n_steps=10, seed=500 + d)
            for n_x in variances:
                cfg = PFConfig(n_particles=n_x)
                runs = [
                    run_pf(model, data.y, np.array([0.9]), cfg,
                           rngmod.stream(9000 + d, rngmod.PARTICLE_FILTER, k=r, i=n_x))
                    for r in range(60)
                ]
                variances[n_x].append(np.var(runs))
        averaged = {n_x: np.mean(v) for n_x, v in variances.items()}
        assert averaged[50] >= averaged[200] >= averaged[1000]
