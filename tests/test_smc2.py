"""Tests for the outer sampler over model parameters."""

import csv

import numpy as np
import pytest
from scipy import integrate, linalg, stats

from smc2.comms import spawn_group
from smc2.pf import PFConfig
from smc2.smc2 import (
    GaussianJointFit,
    SMC2Config,
    _cho_solve_rows,
    ess,
    estimate,
    evaluate_target,
    fit_gaussian_joint,
    _gaussian_log_density_chol,
    gaussian_log_density,
    init_population,
    lkernel_log_density,
    normalize,
    propose,
    recycle,
    recycling_weight,
    run_smc2,
    weight_update,
    write_diagnostics,
)
from smc2.resample import reset_weights
from smc2.ssm import SIRConfig, SIRModel, SSMDefinition, simulate_sir


def tiny_pf() -> PFConfig:
    return PFConfig(n_particles=32)


def base_config(**kw) -> SMC2Config:
    args = dict(n_samples=8, n_iterations=2, proposal_cov=0.1 * np.eye(2),
                pf_config=tiny_pf())
    args.update(kw)
    return SMC2Config(**args)


class GaussianToyModel(SSMDefinition):
    """Standard-normal prior on a scalar parameter; dynamics never used.

    Paired with an injected closed-form likelihood N(y_obs; theta, 1), the
    posterior is Gaussian with mean y_obs/2 and variance 1/2, which gives
    the sampler an analytically known target.
    """

    state_dim = 1
    param_dim = 1
    param_names = ("mu",)

    def log_prior(self, theta) -> float:
        th = float(np.asarray(theta, dtype=float)[0])
        return float(-0.5 * (np.log(2.0 * np.pi) + th * th))

    def sample_prior(self, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(size=1)


Y_OBS = 0.4
POST_MEAN = Y_OBS / 2.0
POST_SD = np.sqrt(0.5)


def conjugate_loglik(theta, rng) -> float:
    return float(stats.norm.logpdf(Y_OBS, loc=float(theta[0]), scale=1.0))


class GaussianToyModel2D(GaussianToyModel):
    """Standard-normal prior on a 2-D parameter; pairs with plane_loglik."""

    param_dim = 2
    param_names = ("mu0", "mu1")

    def log_prior(self, theta) -> float:
        th = np.asarray(theta, dtype=float)
        return float(-0.5 * (2.0 * np.log(2.0 * np.pi) + th @ th))

    def sample_prior(self, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(size=2)


Y_PLANE = np.array([[0.4, -0.3], [0.9, 0.1], [0.2, -0.8]])


def plane_loglik(theta, rng) -> float:
    """Unit-variance observations of theta, up to a constant."""
    dev = Y_PLANE - np.asarray(theta, dtype=float)
    return float(-0.5 * np.sum(dev * dev))


# ---------------------------------------------------------------------------
# Helpers running population ops on a worker group over a shared global array.


def on_group(size, fn):
    """Run fn(comm) on every rank; check agreement and return rank 0's value."""
    results = spawn_group(size, lambda comm, seed: fn(comm))
    return results


def split_rows(arr, size, rank):
    n = arr.shape[0] // size
    return arr[rank * n:(rank + 1) * n]


def normalize_on_group(size, log_weights):
    def fn(comm):
        return normalize(comm, split_rows(log_weights, size, comm.rank))
    parts = on_group(size, fn)
    normalized = np.concatenate([p[0] for p in parts])
    totals = [p[1] for p in parts]
    assert max(totals) == min(totals)
    return normalized, totals[0]


def fit_on_group(size, theta_prev, theta):
    def fn(comm):
        return fit_gaussian_joint(comm, split_rows(theta_prev, size, comm.rank),
                                  split_rows(theta, size, comm.rank))
    return on_group(size, fn)[0]


class TestConfig:
    def test_accepts_spd_covariance(self):
        cfg = base_config()
        assert cfg.dim == 2
        np.testing.assert_allclose(cfg.proposal_chol @ cfg.proposal_chol.T,
                                   cfg.proposal_cov, atol=1e-15)

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError, match="positive definite"):
            base_config(proposal_cov=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError, match="symmetric"):
            base_config(proposal_cov=np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_rejects_non_square_covariance(self):
        with pytest.raises(ValueError, match="square"):
            base_config(proposal_cov=np.ones((2, 3)))

    def test_rejects_bad_sample_counts(self):
        with pytest.raises(ValueError, match="power of two"):
            base_config(n_samples=12)
        with pytest.raises(ValueError, match="power of two"):
            base_config(n_samples=1)

    def test_rejects_bad_iterations_and_fraction(self):
        with pytest.raises(ValueError, match="at least 1"):
            base_config(n_iterations=0)
        with pytest.raises(ValueError, match="resample_fraction"):
            base_config(resample_fraction=0.0)
        with pytest.raises(ValueError, match="resample_fraction"):
            base_config(resample_fraction=1.5)

    def test_rejects_unknown_lkernel(self):
        with pytest.raises(ValueError, match="lkernel"):
            base_config(lkernel="optimal")


class TestGaussianLogDensity:
    def test_matches_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            a = rng.normal(size=(d, d))
            cov = a @ a.T + 0.5 * np.eye(d)
            x = rng.normal(size=d)
            mean = rng.normal(size=d)
            expected = stats.multivariate_normal(mean=mean, cov=cov).logpdf(x)
            np.testing.assert_allclose(gaussian_log_density(x, mean, cov),
                                       expected, rtol=1e-12)

    def test_mode_value_identity_covariance(self):
        # at the mean with unit determinant only the constant survives
        assert gaussian_log_density([0.0, 0.0], [0.0, 0.0], np.eye(2)) == \
            -np.log(2.0 * np.pi)

    def test_rejects_negative_definite(self):
        with pytest.raises(RuntimeError, match="positive definite"):
            gaussian_log_density([0.0], [0.0], np.array([[-1.0]]))


class TestPropose:
    def test_zero_covariance_limit_keeps_theta(self):
        cfg = base_config(proposal_cov=1e-30 * np.eye(2))
        rng = np.random.default_rng(3)
        theta = np.array([0.85, 0.2])
        np.testing.assert_allclose(propose(theta, cfg, rng), theta, atol=1e-14)

    def test_reproducible_given_stream(self):
        cfg = base_config()
        a = propose([0.5, 0.5], cfg, np.random.default_rng(77))
        b = propose([0.5, 0.5], cfg, np.random.default_rng(77))
        np.testing.assert_array_equal(a, b)

    def test_marginal_standard_deviation(self):
        """Sigma = 0.1 I gives per-coordinate spread sqrt(0.1)."""
        cfg = base_config()
        rng = np.random.default_rng(2025)
        n = 100_000
        draws = np.array([propose([0.0, 0.0], cfg, rng) for _ in range(n)])
        target = np.sqrt(0.1)
        # std of a sample std is about sigma / sqrt(2 n)
        tol = 4.0 * target / np.sqrt(2.0 * n)
        assert abs(draws[:, 0].std(ddof=1) - target) < tol
        assert abs(draws[:, 1].std(ddof=1) - target) < tol
        assert abs(draws[:, 0].mean()) < 4.0 * target / np.sqrt(n)


class TestEvaluateTarget:
    def test_out_of_support_skips_filter(self):
        model = SIRModel(SIRConfig(n_pop=100, i0=1, n_steps=3))
        calls = []

        class Counting(SIRModel):
            def sample_initial(self, theta, n, rng):
                calls.append(1)
                return super().sample_initial(theta, n, rng)

        counting = Counting(model.config)
        opened = []
        lp, ll = evaluate_target(counting, np.array([2.0, 1.0, 1.0]),
                                 np.array([1.2, 0.3]), tiny_pf(),
                                 lambda: opened.append(1))
        assert lp == -np.inf
        assert ll == -np.inf
        assert calls == []
        assert opened == []

    def test_in_support_runs_filter(self):
        model = SIRModel(SIRConfig(n_pop=100, i0=1, n_steps=3))
        dataset = simulate_sir(model.config, (0.85, 0.2), seed=5)
        lp, ll = evaluate_target(model, dataset, np.array([0.85, 0.2]),
                                 tiny_pf(), lambda: np.random.default_rng(0))
        assert lp == 0.0
        assert np.isfinite(ll)

    def test_same_stream_same_loglik(self):
        model = SIRModel(SIRConfig(n_pop=100, i0=1, n_steps=3))
        dataset = simulate_sir(model.config, (0.85, 0.2), seed=5)
        out = [evaluate_target(model, dataset, np.array([0.5, 0.3]), tiny_pf(),
                               lambda: np.random.default_rng(42))[1] for _ in range(2)]
        assert out[0] == out[1]

    def test_injected_likelihood_replaces_filter(self):
        model = SIRModel(SIRConfig(n_pop=100, i0=1, n_steps=3))
        seen = []

        def loglik(theta, rng):
            seen.append(rng)
            return theta[0] - 1.0

        stream = np.random.default_rng(7)
        lp, ll = evaluate_target(model, None, np.array([0.5, 0.3]), tiny_pf(),
                                 lambda: stream, loglik)
        assert (lp, ll) == (0.0, -0.5)
        assert seen == [stream]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nan_or_inf_likelihood_raises_naming_theta(self, bad):
        model = SIRModel(SIRConfig(n_pop=100, i0=1, n_steps=3))
        with pytest.raises(ValueError, match=rf"log-likelihood is {bad} at theta \[0\.5, 0\.3\]"):
            evaluate_target(model, None, np.array([0.5, 0.3]), tiny_pf(),
                            lambda: np.random.default_rng(0), lambda th, rng: bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nan_or_inf_prior_raises_naming_theta(self, bad):
        class BadPrior(GaussianToyModel):
            def log_prior(self, theta):
                return bad

        opened = []
        with pytest.raises(ValueError, match=rf"log prior is {bad} at theta \[0\.25\]"):
            evaluate_target(BadPrior(), None, np.array([0.25]), tiny_pf(),
                            lambda: opened.append(1), conjugate_loglik)
        assert opened == []

    def test_zero_likelihood_is_valid(self):
        lp, ll = evaluate_target(GaussianToyModel(), None, np.array([0.25]), tiny_pf(),
                                 lambda: None, lambda th, rng: float("-inf"))
        assert np.isfinite(lp) and ll == -np.inf


class TestFitGaussianJoint:
    def test_two_point_moments(self):
        theta_prev = np.array([[0.0], [2.0]])
        theta = np.array([[0.0], [2.0]])
        fit = fit_on_group(1, theta_prev, theta)
        np.testing.assert_array_equal(fit.mean_prev, [1.0])
        np.testing.assert_array_equal(fit.mean_curr, [1.0])
        for block in (fit.cov_prev_prev, fit.cov_prev_curr, fit.cov_curr_curr):
            np.testing.assert_array_equal(block, [[1.0]])

    def test_identical_pairs_zero_covariance(self):
        theta = np.full((8, 2), 0.3)
        fit = fit_on_group(1, theta, theta)
        np.testing.assert_array_equal(fit.cov_curr_curr, np.zeros((2, 2)))
        np.testing.assert_array_equal(fit.cov_prev_curr, np.zeros((2, 2)))

    def test_matches_numpy_population_covariance(self):
        rng = np.random.default_rng(8)
        theta_prev = rng.normal(size=(16, 2)) + 3.0
        theta = 0.5 * theta_prev + rng.normal(size=(16, 2))
        fit = fit_on_group(1, theta_prev, theta)
        z = np.hstack([theta_prev, theta])
        full = np.cov(z.T, bias=True)
        np.testing.assert_allclose(fit.cov_prev_prev, full[:2, :2], atol=1e-12)
        np.testing.assert_allclose(fit.cov_prev_curr, full[:2, 2:], atol=1e-12)
        np.testing.assert_allclose(fit.cov_curr_curr, full[2:, 2:], atol=1e-12)
        np.testing.assert_allclose(fit.mean_prev, z.mean(axis=0)[:2], atol=1e-14)

    def test_identical_across_worker_counts(self):
        rng = np.random.default_rng(9)
        theta_prev = rng.normal(size=(16, 2))
        theta = theta_prev + rng.normal(size=(16, 2))
        fits = [fit_on_group(p, theta_prev, theta) for p in (1, 2, 4)]
        for fit in fits[1:]:
            np.testing.assert_array_equal(fit.mean_curr, fits[0].mean_curr)
            np.testing.assert_array_equal(fit.cov_prev_curr, fits[0].cov_prev_curr)
            np.testing.assert_array_equal(fit.cov_curr_curr, fits[0].cov_curr_curr)

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="two samples"):
            fit_on_group(1, np.zeros((1, 1)), np.zeros((1, 1)))


def make_fit(mean_prev, mean_curr, cov_pp, cov_pc, cov_cc) -> GaussianJointFit:
    return GaussianJointFit(
        mean_prev=np.asarray(mean_prev, dtype=float),
        mean_curr=np.asarray(mean_curr, dtype=float),
        cov_prev_prev=np.asarray(cov_pp, dtype=float),
        cov_prev_curr=np.asarray(cov_pc, dtype=float),
        cov_curr_curr=np.asarray(cov_cc, dtype=float),
    )


class TestLKernelDensity:
    def test_scalar_conditioning(self):
        """Unit variances with correlation 1/2 condition to mean 1/2, var 3/4."""
        fit = make_fit([0.0], [0.0], [[1.0]], [[0.5]], [[1.0]])
        for x in (-1.0, 0.0, 0.5, 2.0):
            got = lkernel_log_density([x], [1.0], fit)
            want = stats.norm.logpdf(x, loc=0.5, scale=np.sqrt(0.75))
            assert got == pytest.approx(want, abs=1e-6)

    def test_mode_value(self):
        fit = make_fit([0.4, -0.2], [0.0, 0.0], np.diag([2.0, 3.0]),
                       np.zeros((2, 2)), np.eye(2))
        got = lkernel_log_density([0.4, -0.2], [5.0, -7.0], fit)
        assert got == pytest.approx(-np.log(2.0 * np.pi) - 0.5 * np.log(6.0),
                                    rel=1e-12)

    def test_zero_cross_covariance_equals_marginal_exactly(self):
        fit = make_fit([0.3, -0.1], [0.7, 0.2],
                       [[0.8, 0.1], [0.1, 0.5]], np.zeros((2, 2)),
                       [[0.4, 0.0], [0.0, 0.9]])
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=2)
            tc = rng.normal(size=2)
            assert lkernel_log_density(x, tc, fit) == \
                gaussian_log_density(x, fit.mean_prev, fit.cov_prev_prev)

    def test_integrates_to_one(self):
        fit = make_fit([0.3], [-0.1], [[0.8]], [[0.3]], [[0.5]])

        def dens(x):
            return np.exp(lkernel_log_density([x], [0.4], fit))

        total, err = integrate.quad(dens, -12.0, 12.0)
        assert abs(total - 1.0) < 1e-6

    def test_matches_direct_conditioning_formula(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            a = rng.normal(size=(2, 2))
            joint = a @ a.T + 0.2 * np.eye(2)
            fit = make_fit(rng.normal(size=1), rng.normal(size=1),
                           joint[:1, :1], joint[:1, 1:], joint[1:, 1:])
            tc = rng.normal()
            x = rng.normal()
            mu = fit.mean_prev[0] + joint[0, 1] / joint[1, 1] * (tc - fit.mean_curr[0])
            var = joint[0, 0] - joint[0, 1] ** 2 / joint[1, 1]
            want = stats.norm.logpdf(x, loc=mu, scale=np.sqrt(var))
            assert lkernel_log_density([x], [tc], fit) == pytest.approx(want, abs=1e-5)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_solve_matches_cho_solve(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(200):
            a = rng.normal(size=(d, d))
            chol = np.linalg.cholesky(a @ a.T + d * np.eye(d))
            b = rng.normal(size=(d, d))
            want = linalg.cho_solve((chol, True), b.T).T
            got = _cho_solve_rows(chol, b)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_collapsed_conditional_rejected(self):
        fit = make_fit([0.0], [0.0], [[1e-6]], [[10.0]], [[1.0]])
        with pytest.raises(RuntimeError, match="positive definite"):
            lkernel_log_density([0.0], [1.0], fit)
        with pytest.raises(RuntimeError, match="positive definite"):
            lkernel_log_density(np.zeros((5, 1)), np.ones((5, 1)), fit)


def random_fit(rng, d) -> GaussianJointFit:
    a = rng.normal(size=(2 * d, 2 * d))
    joint = a @ a.T + 0.2 * np.eye(2 * d)
    return make_fit(rng.normal(size=d), rng.normal(size=d),
                    joint[:d, :d], joint[:d, d:], joint[d:, d:])


class TestDensityBlocks:
    """An (n, d) block gives n densities, each bitwise its one-point value."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 7, 512])
    def test_rows_match_one_point_calls(self, d, n):
        rng = np.random.default_rng(100 * d + n)
        fit = random_fit(rng, d)
        a = rng.normal(size=(d, d))
        chol = np.linalg.cholesky(a @ a.T + 0.5 * np.eye(d))
        prev = rng.normal(size=(n, d))
        curr = rng.normal(size=(n, d))
        log_l = lkernel_log_density(prev, curr, fit)
        log_q = _gaussian_log_density_chol(curr, prev, chol)
        assert log_l.shape == log_q.shape == (n,)
        for j in range(n):
            one_l = lkernel_log_density(prev[j], curr[j], fit)
            one_q = _gaussian_log_density_chol(curr[j], prev[j], chol)
            assert type(one_l) is float and type(one_q) is float
            assert log_l[j] == one_l
            assert log_q[j] == one_q

    @pytest.mark.parametrize("d", [2, 3])
    def test_singular_conditional_rejected(self, d):
        # A rank-one prev/prev block with no coupling: the conditional
        # covariance is singular, so the kernel has no density.
        rng = np.random.default_rng(d)
        cov_pp = np.ones((d, d))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(cov_pp)
        fit = make_fit(rng.normal(size=d), rng.normal(size=d), cov_pp,
                       np.zeros((d, d)), np.eye(d))
        with pytest.raises(RuntimeError, match="population has collapsed"):
            lkernel_log_density(rng.normal(size=(7, d)), rng.normal(size=(7, d)), fit)


class TestWeightUpdate:
    def test_log_ratio_doubles_weight(self):
        out = weight_update(np.array([0.0]), np.array([0.0]),
                            np.array([np.log(2.0)]))
        np.testing.assert_array_equal(out, [np.log(2.0)])

    def test_unit_ratio_keeps_weight(self):
        lw = np.array([0.3, -1.2])
        t = np.array([0.5, -4.0])
        np.testing.assert_array_equal(weight_update(lw, t, t), lw)

    def test_increment_is_target_ratio(self):
        rng = np.random.default_rng(5)
        lw = rng.normal(size=16)
        tp = rng.normal(size=16)
        tn = rng.normal(size=16)
        np.testing.assert_array_equal(weight_update(lw, tp, tn), lw + (tn - tp))

    def test_dead_samples_stay_dead(self):
        lw = np.array([-np.inf, 0.0])
        out = weight_update(lw, np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        assert out[0] == -np.inf
        assert out[1] == 1.0

    def test_zero_new_target_kills_sample(self):
        out = weight_update(np.array([0.0]), np.array([0.0]),
                            np.array([-np.inf]))
        assert out[0] == -np.inf
        assert not np.any(np.isnan(out))

    def test_live_sample_with_zero_previous_target_rejected(self):
        with pytest.raises(RuntimeError, match="inconsistent"):
            weight_update(np.array([0.0]), np.array([-np.inf]), np.array([0.0]))

    def test_kernel_terms_must_come_together(self):
        with pytest.raises(ValueError, match="together"):
            weight_update(np.zeros(2), np.zeros(2), np.zeros(2),
                          log_l=np.zeros(2))

    def test_kernel_correction_enters_increment(self):
        rng = np.random.default_rng(6)
        lw = rng.normal(size=8)
        tp = rng.normal(size=8)
        tn = rng.normal(size=8)
        log_l = rng.normal(size=8)
        log_q = rng.normal(size=8)
        out = weight_update(lw, tp, tn, log_l=log_l, log_q=log_q)
        np.testing.assert_allclose(out, lw + (tn - tp) + (log_l - log_q),
                                   rtol=1e-14)

    def test_zero_cross_covariance_correction_reduces_to_marginal(self):
        """With independent blocks the kernel term is the prev marginal density."""
        fit = make_fit([0.1], [0.0], [[0.6]], [[0.0]], [[0.4]])
        cfg = base_config(proposal_cov=np.array([[0.25]]))
        theta_prev = np.array([0.3])
        theta_new = np.array([0.9])
        log_l = lkernel_log_density(theta_prev, theta_new, fit)
        log_q = gaussian_log_density(theta_new, theta_prev, cfg.proposal_cov)
        out = weight_update(np.array([0.2]), np.array([-0.4]), np.array([-0.1]),
                            log_l=np.array([log_l]), log_q=np.array([log_q]))
        want = 0.2 + 0.3 + gaussian_log_density(theta_prev, fit.mean_prev,
                                                fit.cov_prev_prev) - log_q
        assert out[0] == pytest.approx(want, rel=1e-14)


class TestNormalize:
    def test_three_weight_example(self):
        lw = np.array([np.log(2.0), 0.0, 0.0, -np.inf])
        normalized, log_total = normalize_on_group(1, lw)
        np.testing.assert_allclose(normalized, [0.5, 0.25, 0.25, 0.0], atol=1e-15)
        assert log_total == pytest.approx(np.log(4.0), rel=1e-14)

    def test_flat_weights(self):
        normalized, log_total = normalize_on_group(1, np.zeros(4))
        np.testing.assert_array_equal(normalized, [0.25, 0.25, 0.25, 0.25])
        assert log_total == pytest.approx(np.log(4.0), rel=1e-14)

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        lw = rng.normal(size=16)
        base, total = normalize_on_group(1, lw)
        shifted, total_shifted = normalize_on_group(1, lw + 100.0)
        np.testing.assert_allclose(shifted, base, rtol=1e-14)
        assert total_shifted == pytest.approx(total + 100.0, rel=1e-12)

    def test_sums_to_one_and_matches_across_worker_counts(self):
        rng = np.random.default_rng(13)
        lw = rng.normal(size=16) * 3.0
        lw[3] = -np.inf
        base, total = normalize_on_group(1, lw)
        assert abs(base.sum() - 1.0) < 1e-12
        for p in (2, 4):
            got, got_total = normalize_on_group(p, lw)
            np.testing.assert_array_equal(got, base)
            assert got_total == total

    def test_all_dead_population_rejected(self):
        with pytest.raises(RuntimeError, match="degenerate"):
            normalize_on_group(2, np.full(8, -np.inf))


class TestEssEstimate:
    def test_ess_frozen_values(self):
        def fn(comm):
            return ess(comm, np.array([0.5, 0.25, 0.125, 0.125]))
        assert on_group(1, fn)[0] == pytest.approx(32.0 / 11.0, rel=1e-12)

    def test_ess_uniform_exact(self):
        def fn(comm):
            return ess(comm, split_rows(np.full(16, 1.0 / 16.0), comm.size, comm.rank))
        for p in (1, 2, 4):
            assert on_group(p, fn)[0] == 16.0

    def test_ess_one_hot(self):
        def fn(comm):
            w = np.zeros(8)
            w[5] = 1.0
            return ess(comm, w)
        assert on_group(1, fn)[0] == 1.0

    def test_estimate_two_samples(self):
        def fn(comm):
            return estimate(comm, np.array([[0.2], [0.4]]), np.array([0.5, 0.5]))
        np.testing.assert_allclose(on_group(1, fn)[0], [0.3], rtol=1e-12)

    def test_estimate_one_hot_returns_that_sample(self):
        theta = np.arange(8.0).reshape(8, 1)
        w = np.zeros(8)
        w[6] = 1.0

        def fn(comm):
            return estimate(comm, split_rows(theta, comm.size, comm.rank),
                            split_rows(w, comm.size, comm.rank))
        for p in (1, 2):
            np.testing.assert_array_equal(on_group(p, fn)[0], [6.0])

    def test_estimate_uniform_is_mean(self):
        rng = np.random.default_rng(14)
        theta = rng.normal(size=(16, 2))

        def fn(comm):
            return estimate(comm, split_rows(theta, comm.size, comm.rank),
                            np.full(16 // comm.size, 1.0 / 16.0))
        base = on_group(1, fn)[0]
        np.testing.assert_allclose(base, theta.mean(axis=0), rtol=1e-12)
        np.testing.assert_array_equal(on_group(4, fn)[0], base)


class TestRecyclingWeight:
    def run(self, size, lw):
        def fn(comm):
            return recycling_weight(comm, split_rows(lw, size, comm.rank))
        return on_group(size, fn)[0]

    def test_equal_weights_give_population_size(self):
        assert self.run(1, np.zeros(4)) == pytest.approx(4.0, rel=1e-12)

    def test_one_hot_gives_one(self):
        lw = np.full(4, -np.inf)
        lw[2] = 1.3
        assert self.run(1, lw) == pytest.approx(1.0, rel=1e-12)

    def test_frozen_value(self):
        lw = np.log(np.array([0.5, 0.25, 0.125, 0.125]))
        assert self.run(1, lw) == pytest.approx(32.0 / 11.0, rel=1e-12)

    def test_degenerate_population_scores_zero(self):
        assert self.run(2, np.full(8, -np.inf)) == 0.0

    def test_matches_ess_of_normalized_weights(self):
        rng = np.random.default_rng(15)
        for trial in range(5):
            lw = rng.normal(size=16) * 2.0
            normalized, _ = normalize_on_group(1, lw)

            def fn(comm, w=normalized):
                return ess(comm, w)
            assert self.run(1, lw) == pytest.approx(on_group(1, fn)[0], rel=1e-9)

    def test_bounds_and_shift_invariance(self):
        rng = np.random.default_rng(16)
        for trial in range(10):
            lw = rng.normal(size=8) * 4.0
            val = self.run(1, lw)
            assert 0.0 <= val <= 8.0
            assert self.run(1, lw - 300.0) == pytest.approx(val, rel=1e-10)

    def test_identical_across_worker_counts(self):
        rng = np.random.default_rng(17)
        lw = rng.normal(size=16)
        vals = {p: self.run(p, lw) for p in (1, 2, 4)}
        assert vals[2] == vals[1]
        assert vals[4] == vals[1]


class TestRecycle:
    def test_equal_information_midpoint(self):
        est, coeffs = recycle([4.0, 4.0], [[0.0, 1.0], [1.0, 3.0]])
        np.testing.assert_array_equal(coeffs, [0.5, 0.5])
        np.testing.assert_allclose(est, [0.5, 2.0], rtol=1e-15)

    def test_one_three_split(self):
        est, coeffs = recycle([1.0, 3.0], [[0.0], [4.0]])
        np.testing.assert_array_equal(coeffs, [0.25, 0.75])
        np.testing.assert_allclose(est, [3.0], rtol=1e-15)

    def test_single_iteration_returns_its_estimate(self):
        est, coeffs = recycle([0.37], [[1.25, -2.0]])
        np.testing.assert_array_equal(coeffs, [1.0])
        np.testing.assert_array_equal(est, [1.25, -2.0])

    def test_coefficients_sum_to_one(self):
        rng = np.random.default_rng(18)
        l = rng.uniform(0.1, 64.0, size=10)
        _, coeffs = recycle(l, rng.normal(size=(10, 2)))
        assert abs(coeffs.sum() - 1.0) < 1e-12

    def test_all_zero_rejected(self):
        with pytest.raises(RuntimeError, match="recycling weights are zero"):
            recycle([0.0, 0.0], [[1.0], [2.0]])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            recycle([1.0, -0.5], [[1.0], [2.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one estimate per"):
            recycle([1.0, 2.0], [[1.0]])


class TestInitPopulation:
    def setup_method(self):
        self.model = SIRModel(SIRConfig(n_pop=500, i0=2, n_steps=5))
        self.dataset = simulate_sir(self.model.config, (0.85, 0.2), seed=31)
        self.config = base_config(n_samples=8, pf_config=PFConfig(n_particles=32))

    def run_init(self, size, loglik_fn=None):
        def worker(comm, seed):
            return init_population(self.config, self.model, self.dataset, comm,
                                   seed, loglik_fn)
        pops = spawn_group(size, worker, 909)
        return pops

    def test_first_weights_equal_log_likelihood(self):
        pop = self.run_init(1)[0]
        np.testing.assert_array_equal(pop.log_weights, pop.log_lik)
        np.testing.assert_array_equal(pop.log_prior, np.zeros(8))

    def test_prior_draws_in_unit_square(self):
        pop = self.run_init(1)[0]
        assert np.all((pop.theta >= 0.0) & (pop.theta <= 1.0))

    def test_identical_population_across_worker_counts(self):
        single = self.run_init(1)[0]
        split = self.run_init(2)
        np.testing.assert_array_equal(np.vstack([p.theta for p in split]),
                                      single.theta)
        np.testing.assert_array_equal(np.concatenate([p.log_lik for p in split]),
                                      single.log_lik)

    def test_injected_likelihood_is_used(self):
        pop = self.run_init(1, loglik_fn=lambda th, rng: float(th[0]))[0]
        np.testing.assert_array_equal(pop.log_lik, pop.theta[:, 0])

    def test_prior_sampler_leaving_support_rejected(self):
        class Broken(SIRModel):
            def sample_prior(self, rng):
                return np.array([2.0, 0.5])

        self.model = Broken(SIRConfig(n_pop=500, i0=2, n_steps=5))
        with pytest.raises(RuntimeError, match="outside its own support"):
            self.run_init(1)

    def test_prior_dimension_mismatch_rejected(self):
        self.config = base_config(n_samples=8, proposal_cov=np.eye(3))
        with pytest.raises(ValueError, match="shape"):
            self.run_init(1)


def run_sampler(size, config, model, dataset, seed, loglik_fn=None):
    def worker(comm, root_seed):
        return run_smc2(config, model, dataset, comm, root_seed,
                        loglik_fn=loglik_fn)
    return spawn_group(size, worker, seed)


def result_bytes(result):
    """Every number a run reports, as bytes, for bitwise comparisons."""
    parts = [result.recycled_estimate, result.recycling_coefficients]
    for rec in result.iterations:
        parts += [np.array([rec.ess, rec.l_k, rec.logz_increment, rec.resampled]),
                  rec.estimate]
    return [np.asarray(p).tobytes() for p in parts]


class TestRunSMC2:
    def test_single_iteration_is_importance_sampling(self):
        """K=1 from the prior is plain self-normalized IS on the conjugate target."""
        config = SMC2Config(n_samples=4096, n_iterations=1,
                            proposal_cov=np.array([[0.25]]),
                            pf_config=tiny_pf())
        result = run_sampler(1, config, GaussianToyModel(), None, 1234,
                             loglik_fn=conjugate_loglik)[0]
        tol = 3.0 * POST_SD / np.sqrt(4096.0)
        assert abs(result.recycled_estimate[0] - POST_MEAN) < tol
        np.testing.assert_array_equal(result.recycled_estimate,
                                      result.final_estimate)
        np.testing.assert_array_equal(result.recycling_coefficients, [1.0])
        # first increment is the log mean weight, an evidence estimate
        evidence = np.exp(result.iterations[0].logz_increment)
        assert evidence == pytest.approx(stats.norm.pdf(Y_OBS, 0.0, np.sqrt(2.0)),
                                         abs=0.01)

    def test_multi_iteration_conjugate_recovery(self):
        config = SMC2Config(n_samples=512, n_iterations=5,
                            proposal_cov=np.array([[0.25]]),
                            pf_config=tiny_pf())
        result = run_sampler(1, config, GaussianToyModel(), None, 777,
                             loglik_fn=conjugate_loglik)[0]
        assert abs(result.recycled_estimate[0] - POST_MEAN) < 0.1
        assert len(result.iterations) == 5
        assert result.elapsed_seconds > 0.0

    def test_gaussian_lkernel_conjugate_recovery(self):
        config = SMC2Config(n_samples=512, n_iterations=5,
                            proposal_cov=np.array([[0.25]]),
                            pf_config=tiny_pf(),
                            lkernel="approx_optimal_gaussian")
        result = run_sampler(1, config, GaussianToyModel(), None, 778,
                             loglik_fn=conjugate_loglik)[0]
        assert abs(result.recycled_estimate[0] - POST_MEAN) < 0.1
        assert all(np.isfinite(rec.l_k) for rec in result.iterations)

    def test_deterministic_given_seed(self):
        config = SMC2Config(n_samples=64, n_iterations=3,
                            proposal_cov=np.array([[0.25]]),
                            pf_config=tiny_pf())
        a = run_sampler(1, config, GaussianToyModel(), None, 55,
                        loglik_fn=conjugate_loglik)[0]
        b = run_sampler(1, config, GaussianToyModel(), None, 55,
                        loglik_fn=conjugate_loglik)[0]
        np.testing.assert_array_equal(a.recycled_estimate, b.recycled_estimate)
        for ra, rb in zip(a.iterations, b.iterations):
            assert ra.ess == rb.ess
            assert ra.l_k == rb.l_k

    def test_sir_run_invariant_to_worker_count(self):
        """Same seed, P in {1, 2, 4}: every reported scalar agrees."""
        model = SIRModel(SIRConfig(n_pop=1000, i0=3, n_steps=10))
        dataset = simulate_sir(model.config, (0.85, 0.2), seed=2024)
        config = SMC2Config(n_samples=32, n_iterations=3,
                            proposal_cov=0.1 * np.eye(2),
                            pf_config=PFConfig(n_particles=64))
        runs = {p: run_sampler(p, config, model, dataset, 4242) for p in (1, 2, 4)}
        base = runs[1][0]
        for p in (2, 4):
            for result in runs[p]:
                np.testing.assert_allclose(result.recycled_estimate,
                                           base.recycled_estimate,
                                           rtol=1e-12, atol=0.0)
                for rec, ref in zip(result.iterations, base.iterations):
                    assert rec.ess == pytest.approx(ref.ess, rel=1e-12)
                    assert rec.l_k == pytest.approx(ref.l_k, rel=1e-12)
                    assert rec.resampled == ref.resampled
                    np.testing.assert_allclose(rec.estimate, ref.estimate,
                                               rtol=1e-12, atol=0.0)
                    assert rec.logz_increment == pytest.approx(
                        ref.logz_increment, rel=1e-12, abs=1e-12)

    def test_gaussian_lkernel_run_invariant_to_worker_count(self):
        """P in {1, 2, 4, 8}, down to one sample per rank: identical bytes.

        A rank's L-kernel densities must not depend on how many rows share
        its block, so no per-row arithmetic may go through BLAS, whose
        kernel choice follows the operand shape.
        """
        config = SMC2Config(n_samples=8, n_iterations=5,
                            proposal_cov=0.25 * np.eye(2), pf_config=tiny_pf(),
                            lkernel="approx_optimal_gaussian")

        runs = {p: run_sampler(p, config, GaussianToyModel2D(), None, 606,
                               loglik_fn=plane_loglik) for p in (1, 2, 4, 8)}
        want = result_bytes(runs[1][0])
        assert any(rec.resampled for rec in runs[1][0].iterations)
        for p in (2, 4, 8):
            for result in runs[p]:
                assert result_bytes(result) == want

    @pytest.mark.parametrize("size", [2, 4])
    @pytest.mark.parametrize("lkernel", ["forward_symmetric", "approx_optimal_gaussian"])
    def test_default_backend_matches_threads_bitwise(self, monkeypatch, lkernel, size):
        """Forked ranks (the default) and rank threads give identical bytes."""
        config = SMC2Config(n_samples=16, n_iterations=4,
                            proposal_cov=0.25 * np.eye(2), pf_config=tiny_pf(),
                            lkernel=lkernel)
        monkeypatch.setenv("SMC2_BACKEND", "inprocess")
        threads = run_sampler(size, config, GaussianToyModel2D(), None, 31,
                              loglik_fn=plane_loglik)
        monkeypatch.delenv("SMC2_BACKEND")
        forked = run_sampler(size, config, GaussianToyModel2D(), None, 31,
                             loglik_fn=plane_loglik)
        assert any(rec.resampled for rec in threads[0].iterations)
        assert [result_bytes(r) for r in forked] == [result_bytes(r) for r in threads]

    def test_forced_resampling_every_iteration(self):
        config = SMC2Config(n_samples=64, n_iterations=4,
                            proposal_cov=np.array([[0.25]]),
                            pf_config=tiny_pf(), resample_fraction=1.0)
        result = run_sampler(2, config, GaussianToyModel(), None, 66,
                             loglik_fn=conjugate_loglik)[0]
        assert all(rec.resampled for rec in result.iterations)
        assert abs(result.recycled_estimate[0] - POST_MEAN) < 0.2

    def test_reset_preserves_log_total_and_restores_ess(self):
        rng = np.random.default_rng(19)
        lw = rng.normal(size=16) * 3.0
        _, log_total = normalize_on_group(1, lw)
        after = reset_weights(lw, 16, log_total)
        normalized_after, log_total_after = normalize_on_group(1, after)

        def fn(comm):
            return ess(comm, normalized_after)
        assert log_total_after == pytest.approx(log_total, abs=1e-12)
        assert on_group(1, fn)[0] == 16.0

    def test_fully_degenerate_population_reported(self):
        config = SMC2Config(n_samples=8, n_iterations=2,
                            proposal_cov=np.array([[0.25]]),
                            pf_config=tiny_pf())
        with pytest.raises(RuntimeError, match="iteration 1.*degenerate"):
            run_sampler(1, config, GaussianToyModel(), None, 5,
                        loglik_fn=lambda th, rng: float("-inf"))

    @pytest.mark.parametrize("backend", ["inprocess", "mpi-like"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_nan_likelihood_ends_run_naming_iteration_and_rank(self, monkeypatch,
                                                                backend, k):
        """A NaN from loglik_fn on rank 1 at iteration k ends the run, never a zero."""
        monkeypatch.setenv("SMC2_BACKEND", backend)
        config = SMC2Config(n_samples=8, n_iterations=4,
                            proposal_cov=0.25 * np.eye(2), pf_config=tiny_pf())

        def worker(comm, root_seed):
            calls = []

            def loglik(theta, rng):
                # the prior has full support: each iteration makes 4 calls per rank
                calls.append(theta)
                if comm.rank == 1 and len(calls) == 4 * (k - 1) + 1:
                    return float("nan")
                return plane_loglik(theta, rng)

            return run_smc2(config, GaussianToyModel2D(), None, comm, root_seed,
                            loglik_fn=loglik)

        with pytest.raises(RuntimeError,
                           match=rf"^iteration {k}: .*log-likelihood is nan at theta \["
                           ) as info:
            spawn_group(2, worker, 7)
        if backend == "mpi-like":
            assert str(info.value.__cause__).startswith("rank 1 failed")

    def test_collapsed_population_ends_gaussian_lkernel_run(self):
        """A one-point prior leaves the L-kernel no density at k=2: an error, not +26."""
        class OnePoint(GaussianToyModel2D):
            def sample_prior(self, rng):
                return np.array([0.1, -0.2])

        config = SMC2Config(n_samples=8, n_iterations=3,
                            proposal_cov=0.25 * np.eye(2), pf_config=tiny_pf(),
                            lkernel="approx_optimal_gaussian")
        with pytest.raises(RuntimeError, match="iteration 2: .*population has collapsed"):
            run_sampler(2, config, OnePoint(), None, 3, loglik_fn=plane_loglik)

    def test_diagnostics_file_layout(self, tmp_path):
        config = SMC2Config(n_samples=32, n_iterations=3,
                            proposal_cov=np.array([[0.25]]),
                            pf_config=tiny_pf())
        result = run_sampler(1, config, GaussianToyModel(), None, 321,
                             loglik_fn=conjugate_loglik)[0]
        path = tmp_path / "diag.csv"
        write_diagnostics(str(path), result)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "ess", "l_k", "resampled", "estimate_mu",
                           "logZ_increment"]
        assert len(rows) == 1 + 3
        assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
        for row in rows[1:]:
            assert row[3] in ("0", "1")
            assert np.isfinite(float(row[1]))
            assert np.isfinite(float(row[5]))

    def test_generic_parameter_names(self):
        class Nameless(SSMDefinition):
            def log_prior(self, theta):
                return 0.0

            def sample_prior(self, rng):
                return rng.uniform(size=1)

        config = SMC2Config(n_samples=4, n_iterations=1,
                            proposal_cov=np.array([[1.0]]),
                            pf_config=tiny_pf())
        result = run_sampler(1, config, Nameless(), None, 8,
                             loglik_fn=lambda th, rng: 0.0)[0]
        assert result.param_names == ("theta0",)


# (ess, l_k, resampled, estimate, logz_increment) per iteration, as
# float.hex(), of a 2-D Gaussian-kernel run: N=64, K=5, P=2, root seed 1.
GAUSS_KERNEL_PINS = (
    ("0x1.953e68a735bb1p+4", "0x1.953e68a735bb2p+4", True,
     ("0x1.8fcc5e8a09af9p-2", "-0x1.71a385cb5b0a1p-3"), "-0x1.c16e7bfbd0cf6p+0"),
    ("0x1.688c6ea6c17fbp+5", "0x1.688c6ea6c17f9p+5", False,
     ("0x1.bb76354dab024p-2", "-0x1.76e7f5f37c7c5p-3"), "0x1.302628c4ce520p-2"),
    ("0x1.c6ca10ff48c3ep+4", "0x1.c6ca10ff48c3ep+4", True,
     ("0x1.20cb88ca1a9acp-2", "-0x1.28f2a06aeb9b8p-2"), "0x1.97456a5feb020p-4"),
    ("0x1.67dcc7b88ca83p+5", "0x1.67dcc7b88ca83p+5", False,
     ("0x1.6739186f95fafp-2", "-0x1.8ff728ae870fep-3"), "0x1.fccc7926e1b20p-3"),
    ("0x1.4677cd42da58cp+4", "0x1.4677cd42da58ap+4", True,
     ("0x1.537477fd4d4d5p-2", "-0x1.5ebb0c5f1e0f8p-3"), "0x1.4768ccc1cfa00p-2"),
)
GAUSS_KERNEL_ROUNDS = 53


class TestFrozenGaussianKernelRun:
    def test_pinned_values(self):
        config = SMC2Config(n_samples=64, n_iterations=5,
                            proposal_cov=0.25 * np.eye(2), pf_config=tiny_pf(),
                            lkernel="approx_optimal_gaussian")

        def worker(comm, root_seed):
            result = run_smc2(config, GaussianToyModel2D(), None, comm, root_seed,
                              loglik_fn=plane_loglik)
            return result, comm.read_round_counter()

        for result, rounds in spawn_group(2, worker, 1):
            assert rounds == GAUSS_KERNEL_ROUNDS
            assert len(result.iterations) == len(GAUSS_KERNEL_PINS)
            for rec, (ess_k, l_k, resampled, est, logz) in zip(result.iterations,
                                                               GAUSS_KERNEL_PINS):
                assert rec.resampled == resampled
                assert rec.ess == pytest.approx(float.fromhex(ess_k), rel=1e-12)
                assert rec.l_k == pytest.approx(float.fromhex(l_k), rel=1e-12)
                np.testing.assert_allclose(rec.estimate,
                                           [float.fromhex(v) for v in est],
                                           rtol=1e-12, atol=0.0)
                assert rec.logz_increment == pytest.approx(float.fromhex(logz),
                                                           rel=1e-12, abs=1e-12)
