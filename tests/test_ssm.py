"""Model layer: epidemic dynamics, observation densities, exact likelihoods."""

import numpy as np
import pytest
from scipy import special, stats

from smc2 import rng as rng_mod
from smc2.ssm import (
    Dataset,
    LinearGaussianModel,
    SIRConfig,
    SIRModel,
    kalman_loglik,
    _log_factorial,
    read_dataset,
    simulate,
    simulate_sir,
    sir_leave_probabilities,
    sir_observation_logpdf,
    sir_transition,
    write_dataset,
)


class TestLeaveProbabilities:
    def test_recovery_probability_value(self):
        _, p_ir = sir_leave_probabilities(np.array([0.85, 0.2]), 9997, 3, 10_000)
        assert p_ir == pytest.approx(0.18126924692201818, abs=1e-12)

    def test_infection_probability_uses_both_compartments(self):
        theta = np.array([0.85, 0.2])
        p_si, _ = sir_leave_probabilities(theta, 9997, 3, 10_000)
        assert p_si == pytest.approx(-np.expm1(-0.85 * 3 * 9997 / 10_000))

    def test_reed_frost_standard_scaling(self):
        theta = np.array([0.85, 0.2])
        p_si, _ = sir_leave_probabilities(theta, 9997, 3, 10_000,
                                          reed_frost_standard=True)
        assert p_si == pytest.approx(-np.expm1(-0.85 * 3 / 10_000))

    def test_probabilities_in_unit_interval(self):
        gen = np.random.default_rng(0)
        for _ in range(200):
            theta = gen.uniform(0, 1, 2)
            s = gen.integers(0, 10_000)
            i = gen.integers(0, 10_000 - s + 1)
            p_si, p_ir = sir_leave_probabilities(theta, s, i, 10_000)
            assert 0.0 <= p_si <= 1.0
            assert 0.0 <= p_ir <= 1.0

    def test_no_infections_without_infected(self):
        p_si, _ = sir_leave_probabilities(np.array([0.85, 0.2]), 9997, 0, 10_000)
        assert p_si == 0.0


class TestSIRTransition:
    def test_population_conserved_and_nonnegative(self):
        gen = np.random.default_rng(1)
        model = SIRModel(SIRConfig(n_pop=10_000, i0=3))
        states = model.sample_initial(np.array([0.85, 0.2]), 256, gen)
        for _ in range(30):
            states = model.sample_transition(states, np.array([0.85, 0.2]), gen)
            assert np.all(states >= 0)
            np.testing.assert_array_equal(states.sum(axis=1), 10_000)

    def test_flow_bounds(self):
        # Leavers of S can never exceed S, leavers of I never exceed I.
        gen = np.random.default_rng(2)
        prev = np.array([[50, 20, 30]] * 500, dtype=np.int64)
        new = sir_transition(prev, np.array([0.9, 0.8]), 100, gen)
        n_si = prev[:, 0] - new[:, 0]
        n_ir = new[:, 2] - prev[:, 2]
        assert np.all((0 <= n_si) & (n_si <= 50))
        assert np.all((0 <= n_ir) & (n_ir <= 20))

    def test_transition_moments_match_binomial(self):
        # Monte Carlo means at the true parameters against the binomial
        # mean identity: E[n_SI] = S * p_SI, E[n_IR] = I * p_IR.
        gen = np.random.default_rng(3)
        theta = np.array([0.85, 0.2])
        reps = 100_000
        prev = np.array([[9997, 3, 0]] * reps, dtype=np.int64)
        new = sir_transition(prev, theta, 10_000, gen)
        p_si, p_ir = sir_leave_probabilities(theta, 9997, 3, 10_000)
        mean_si = np.mean(prev[:, 0] - new[:, 0])
        mean_ir = np.mean(new[:, 2] - prev[:, 2])
        assert 9997 * p_si == pytest.approx(9215.82, abs=0.05)
        se_si = np.sqrt(9997 * p_si * (1 - p_si) / reps)
        se_ir = np.sqrt(3 * p_ir * (1 - p_ir) / reps)
        assert abs(mean_si - 9997 * p_si) < 3 * se_si
        assert abs(mean_ir - 3 * p_ir) < 3 * se_ir

    def test_initial_state_is_deterministic(self):
        model = SIRModel(SIRConfig(n_pop=10_000, i0=3))
        states = model.sample_initial(np.array([0.5, 0.5]), 4, np.random.default_rng(4))
        np.testing.assert_array_equal(states, [[9997, 3, 0]] * 4)


class TestSIRObservation:
    def test_poisson_logpmf_value(self):
        out = sir_observation_logpdf(3, np.array([3.0]))
        assert out[0] == pytest.approx(3 * np.log(3.0) - 3.0 - np.log(6.0), abs=1e-12)
        assert out[0] == pytest.approx(-1.49592, abs=1e-5)

    def test_matches_scipy_for_positive_intensity(self):
        intensities = np.array([1.0, 5.0, 120.0, 9000.0])
        for y in (0, 1, 7, 150):
            mine = sir_observation_logpdf(y, intensities)
            ref = stats.poisson.logpmf(y, intensities)
            np.testing.assert_allclose(mine, ref, rtol=1e-12)

    def test_log_factorial_is_bitwise_gammaln(self):
        log_factorial = _log_factorial.__wrapped__  # bypass the cache
        small = np.arange(20_001)
        want = special.gammaln(small + 1.0)
        assert [log_factorial(int(y)) for y in small] == want.tolist()
        rng = np.random.default_rng(19)
        large = np.concatenate([
            rng.integers(20_001, 10**6, 2_000), rng.integers(10**6, 10**10, 2_000),
            [998, 999, 1000, 10**8 - 2, 10**8 - 1, 10**8, 10**8 + 1],
        ])
        assert [log_factorial(int(y)) for y in large] == \
            [float(special.gammaln(int(y) + 1)) for y in large]
        assert type(_log_factorial(7)) is float and type(_log_factorial(70)) is float

    def test_extinct_state_point_mass(self):
        out = sir_observation_logpdf(0, np.array([0.0, 2.0]))
        assert out[0] == 0.0
        out = sir_observation_logpdf(4, np.array([0.0, 2.0]))
        assert out[0] == -np.inf and np.isfinite(out[1])


class TestPrior:
    def test_uniform_square_support(self):
        model = SIRModel()
        assert model.log_prior(np.array([0.5, 0.5])) == 0.0
        assert model.log_prior(np.array([0.0, 1.0])) == 0.0
        assert model.log_prior(np.array([1.2, 0.5])) == -np.inf
        assert model.log_prior(np.array([0.5, -0.01])) == -np.inf

    def test_sample_prior_within_support(self):
        model = SIRModel()
        gen = np.random.default_rng(5)
        draws = np.array([model.sample_prior(gen) for _ in range(100)])
        assert np.all((draws >= 0) & (draws <= 1))


class TestLinearGaussian:
    def test_observation_density_matches_norm(self):
        model = LinearGaussianModel(0.9, 1.0, 1.0)
        states = np.array([[0.0], [1.5], [-2.0]])
        out = model.observation_log_density(0.7, states, None)
        ref = stats.norm.logpdf(0.7, loc=states[:, 0], scale=1.0)
        np.testing.assert_allclose(out, ref, rtol=1e-12)

    def test_rejects_nonpositive_variances(self):
        with pytest.raises(ValueError):
            LinearGaussianModel(0.9, 0.0, 1.0)


class TestKalman:
    def test_single_step_closed_form(self):
        # One observation of 0 with q = r = 1: y_1 ~ N(0, 2).
        assert kalman_loglik([0.0], a=0.9, q=1.0, r=1.0) == pytest.approx(
            -0.5 * np.log(4.0 * np.pi), abs=1e-12
        )

    def test_independent_case_reduces_to_iid_gaussian(self):
        # a = 0 makes the observations iid N(0, q + r).
        ys = np.array([0.3, -1.2, 0.5, 2.0])
        expect = np.sum(stats.norm.logpdf(ys, scale=np.sqrt(2.0)))
        assert kalman_loglik(ys, a=0.0, q=1.0, r=1.0) == pytest.approx(expect, rel=1e-12)

    def test_matches_joint_gaussian_brute_force(self):
        # Independent oracle: stack the recursion x = M eps, so the
        # observation vector is jointly Gaussian with known covariance.
        a, q, r, t_len = 0.9, 1.0, 1.0, 20
        m = np.zeros((t_len, t_len))
        for t in range(t_len):
            for s in range(t + 1):
                m[t, s] = a ** (t - s)
        cov_y = q * (m @ m.T) + r * np.eye(t_len)
        gen = np.random.default_rng(6)
        for _ in range(5):
            ys = gen.multivariate_normal(np.zeros(t_len), cov_y)
            ref = stats.multivariate_normal.logpdf(ys, mean=np.zeros(t_len), cov=cov_y)
            assert kalman_loglik(ys, a, q, r) == pytest.approx(ref, rel=1e-10)


class TestSimulate:
    def test_deterministic_given_seed(self):
        cfg = SIRConfig(n_pop=10_000, i0=3, n_steps=30)
        d1 = simulate_sir(cfg, np.array([0.85, 0.2]), seed=11)
        d2 = simulate_sir(cfg, np.array([0.85, 0.2]), seed=11)
        np.testing.assert_array_equal(d1.y, d2.y)
        d3 = simulate_sir(cfg, np.array([0.85, 0.2]), seed=12)
        assert not np.array_equal(d1.y, d3.y)

    def test_observation_count_and_nonnegativity(self):
        cfg = SIRConfig(n_pop=10_000, i0=3, n_steps=30)
        ds = simulate_sir(cfg, np.array([0.85, 0.2]), seed=13)
        assert ds.y.shape == (30,)
        assert np.all(ds.y >= 0)

    def test_lg_simulation_runs(self):
        ds = simulate(LinearGaussianModel(0.9, 1.0, 1.0), np.array([0.9]), 20, seed=14)
        assert ds.y.shape == (20,)
        assert np.all(np.isfinite(ds.y))


class TestDatasetIO:
    def test_roundtrip(self, tmp_path):
        cfg = SIRConfig(n_pop=10_000, i0=3, n_steps=30)
        ds = simulate_sir(cfg, np.array([0.85, 0.2]), seed=21)
        path = str(tmp_path / "epidemic.csv")
        write_dataset(path, ds)
        back = read_dataset(path)
        np.testing.assert_array_equal(back.y, ds.y)
        np.testing.assert_array_equal(back.theta_true, ds.theta_true)
        assert back.seed == 21
        assert back.meta["n_pop"] == 10_000
        assert back.meta["i0"] == 3
        assert back.meta["n_steps"] == 30
        assert back.meta["reed_frost_standard"] is False

    def test_header_and_rows(self, tmp_path):
        ds = Dataset(y=np.array([4.0, 0.0, 7.5]), theta_true=np.array([0.5, 0.5]), seed=1)
        path = str(tmp_path / "tiny.csv")
        write_dataset(path, ds)
        lines = open(path).read().splitlines()
        assert lines[0] == "t,y"
        assert lines[1] == "1,4"
        assert lines[3] == "3,7.5"

    def test_bad_header_rejected(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("time,value\n1,2\n")
        with open(path + ".meta", "w") as fh:
            fh.write("seed=0\n")
        with pytest.raises(ValueError):
            read_dataset(path)


def test_streams_are_independent_and_reproducible():
    a = rng_mod.stream(0, rng_mod.PARTICLE_FILTER, k=3, i=7).normal(size=4)
    b = rng_mod.stream(0, rng_mod.PARTICLE_FILTER, k=3, i=7).normal(size=4)
    c = rng_mod.stream(0, rng_mod.PARTICLE_FILTER, k=3, i=8).normal(size=4)
    d = rng_mod.stream(0, rng_mod.PROPOSAL, k=3, i=7).normal(size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
