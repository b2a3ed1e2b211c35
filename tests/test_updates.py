import math

import numpy as np
import pytest

import conftest
from conftest import (
    incorporate_one_run, log_z_triple, one_step, output_moments, random_net, refresh_one_run,
    step_by_phases,
)
from oracles import gamma_tilted_moments_quadrature
from pbp.posterior import GammaDist, PosteriorStack, new_uniform
from reference_prior import (
    NegativeVarianceError,
    Sites,
    _gamma_moments,
    gaussian_log_density,
    gaussian_refine,
    incorporate_prior_factor,
)


def conjugate_logz_gradients(y, m, v, noise_var):
    """Gradients of log N(y | m, v + noise_var) w.r.t. m and v (closed form)."""
    total = v + noise_var
    dm = (y - m) / total
    dv = 0.5 * ((y - m) ** 2 / total**2 - 1.0 / total)
    return dm, dv


class TestGaussianRefine:
    def test_zero_gradient_is_identity(self):
        assert gaussian_refine(0.7, 1.3, 0.0, 0.0) == (0.7, 1.3)

    def test_conjugate_standard_case(self):
        # Prior N(0,1), observation factor N(0 | w, 1): posterior N(0, 1/2).
        dm, dv = conjugate_logz_gradients(0.0, 0.0, 1.0, 1.0)
        assert dm == 0.0 and dv == pytest.approx(-0.25)
        m_new, v_new = gaussian_refine(0.0, 1.0, dm, dv)
        assert m_new == pytest.approx(0.0, abs=1e-12)
        assert v_new == pytest.approx(0.5, abs=1e-12)

    def test_conjugate_general_case(self):
        # Prior N(1,2), factor N(3 | w, 1): posterior mean 7/3, variance 2/3.
        dm, dv = conjugate_logz_gradients(3.0, 1.0, 2.0, 1.0)
        m_new, v_new = gaussian_refine(1.0, 2.0, dm, dv)
        assert m_new == pytest.approx(7.0 / 3.0, abs=1e-12)
        assert v_new == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_randomized_conjugate_cases(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            m = rng.normal()
            v = rng.uniform(0.1, 5.0)
            y = rng.normal(scale=2.0)
            nv = rng.uniform(0.1, 5.0)
            dm, dv = conjugate_logz_gradients(y, m, v, nv)
            m_new, v_new = gaussian_refine(m, v, dm, dv)
            v_exact = v * nv / (v + nv)
            m_exact = (m * nv + y * v) / (v + nv)
            assert m_new == pytest.approx(m_exact, abs=1e-12)
            assert v_new == pytest.approx(v_exact, abs=1e-12)

    def test_negative_variance_signalled(self):
        with pytest.raises(NegativeVarianceError):
            gaussian_refine(0.0, 1.0, 10.0, 0.0)


def student_t_factor(y, v0):
    """Likelihood-style factor in the precision: N(y | 0, 1/x + v0)."""

    def factor(x):
        return math.exp(gaussian_log_density(y, 0.0, 1.0 / x + v0))

    return factor


def quadrature_logz_triple(g, factor):
    """Normalizers of factor x Gamma(shape+k, rate), by quadrature, k=0,1,2."""
    from scipy.integrate import quad
    from scipy.special import gammaln

    out = []
    for k in range(3):
        a, b = g.shape + k, g.rate

        def integrand(lam, a=a, b=b):
            return factor(lam) * math.exp(
                a * math.log(b) - gammaln(a) + (a - 1) * math.log(lam) - b * lam
            )

        val, _ = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=400)
        out.append(math.log(val))
    return tuple(out)


def gamma_refine(g, triple):
    """The Gamma matched to the tilted moments of g under the log-Z triple."""
    return GammaDist(*_gamma_moments(g.shape, g.rate, *triple))


class TestGammaRefine:
    def test_constant_factor_is_identity(self):
        g = GammaDist(6.0, 6.0)
        out = gamma_refine(g, (0.3, 0.3, 0.3))
        assert out.shape == pytest.approx(6.0, rel=1e-12)
        assert out.rate == pytest.approx(6.0, rel=1e-12)

    def test_matches_quadrature_tilted_moments(self):
        g = GammaDist(6.0, 6.0)
        factor = student_t_factor(1.3, 0.4)
        triple = quadrature_logz_triple(g, factor)
        refined = gamma_refine(g, triple)
        e1, e2 = gamma_tilted_moments_quadrature(g, factor)
        assert refined.shape / refined.rate == pytest.approx(e1, rel=1e-6)
        second = refined.shape * (refined.shape + 1.0) / refined.rate**2
        assert second == pytest.approx(e2, rel=1e-6)

    def test_randomized_factors_match_quadrature(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            g = GammaDist(rng.uniform(2.0, 12.0), rng.uniform(1.0, 10.0))
            factor = student_t_factor(rng.normal(scale=2.0), rng.uniform(0.05, 2.0))
            triple = quadrature_logz_triple(g, factor)
            refined = gamma_refine(g, triple)
            e1, e2 = gamma_tilted_moments_quadrature(g, factor)
            assert refined.shape / refined.rate == pytest.approx(e1, rel=1e-6)
            second = refined.shape * (refined.shape + 1.0) / refined.rate**2
            assert second == pytest.approx(e2, rel=1e-6)

    def test_geometric_ratios_keep_shape(self):
        # Z2/Z1 == Z1/Z means no information about the spread: shape fixed.
        g = GammaDist(6.0, 6.0)
        out = gamma_refine(g, (0.1, 0.25, 0.4))
        assert out.shape == pytest.approx(6.0, rel=1e-12)

    def test_invalid_update_keeps_previous(self):
        g = GammaDist(6.0, 6.0)
        # Ratios that would drive the matched shape negative.
        assert _gamma_moments(g.shape, g.rate, 0.0, 1.0, 0.0) is None


class TestLogZPriorFactor:
    """The prior factor's log-normalizers, which the kernel's EP refresh
    takes from the likelihood's log-normalizer: a weight mean as the target
    against moments (0, v)."""

    def test_frozen_value(self):
        # log N(0 | 0, 6/5 + 1) with the Gaussian collapse of the t density.
        val = log_z_triple(0.0, 0.0, 1.0, GammaDist(6.0, 6.0))[0]
        assert val == pytest.approx(-0.5 * math.log(2 * math.pi * 2.2), abs=1e-13)
        assert val == pytest.approx(-1.3131672133868078, abs=1e-12)

    def test_shift_shrinks_collapse_variance(self):
        v0, v1, _ = log_z_triple(0.0, 0.0, 0.5, GammaDist(6.0, 6.0))
        # 6/5 -> 6/6: smaller total variance, higher peak density at 0.
        assert v1 > v0

    def test_shape_guard(self):
        assert log_z_triple(0.0, 0.0, 1.0, GammaDist(1.0, 1.0)) is None

    def test_infinite_variance_is_unusable(self):
        # log Z is -inf, which is not finite: the factor is skipped.
        assert log_z_triple(0.0, 0.0, math.inf, GammaDist(6.0, 6.0)) is None


class TestLogZLikelihood:
    """The likelihood factor's log-normalizers: the kernel's, of a target
    against the output moments."""

    def test_frozen_value(self):
        val = log_z_triple(0.0, 0.0, 1.0, GammaDist(6.0, 6.0))[0]
        assert val == pytest.approx(-1.3131672133868078, abs=1e-12)

    def test_peak_value_deterministic_output(self):
        # vz = 0, noise variance = 6/5: peak density of N(y | y, 1.2).
        val = log_z_triple(2.0, 2.0, 0.0, GammaDist(6.0, 6.0))[0]
        assert val == pytest.approx(-0.5 * math.log(2 * math.pi * 1.2), abs=1e-13)

    def test_monotone_in_output_variance_at_peak(self):
        g = GammaDist(6.0, 6.0)
        vals = [log_z_triple(1.0, 1.0, vz, g)[0] for vz in (0.0, 0.5, 1.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_negative_output_variance_rejected(self):
        # The example is skipped, as it is when the squared residual overflows.
        assert log_z_triple(0.0, 0.0, -0.1, GammaDist(6.0, 6.0)) is None
        assert log_z_triple(1e160, 0.0, 1.0, GammaDist(6.0, 6.0)) is None


class TestIncorporatePriorFactor:
    def test_uniform_state_closed_form(self):
        net = new_uniform([1, 1])
        net.lam = GammaDist(6.0, 6.0)
        net.gamma = GammaDist(6.0, 6.0)
        sites = Sites.zeros(net)
        incorporate_one_run(net, sites)
        assert net.layers[0].means[0, 0] == 0.0
        assert net.layers[0].variances[0, 0] == pytest.approx(1.2, abs=1e-15)
        # Gamma factor untouched in the flat limit.
        assert net.lam.shape == 6.0 and net.lam.rate == 6.0
        assert sites.precision[0][0, 0] == pytest.approx(1.0 / 1.2, rel=1e-15)
        assert sites.precision_mean[0][0, 0] == 0.0

    def test_uniform_matches_large_finite_variance_limit(self):
        # The closed form must be the limit of the finite-variance update.
        # Beyond v ~ 1e8 the v - v^2/total cancellation dominates, which is
        # the reason the uniform state is a sentinel, not a huge float.
        lam = GammaDist(6.0, 6.0)
        for v in (1e5, 1e6, 1e7):
            total = lam.rate / (lam.shape - 1.0) + v
            dm = -0.0 / total
            dv = 0.5 * (0.0 - 1.0 / total)
            m_new, v_new = gaussian_refine(0.0, v, dm, dv)
            assert m_new == 0.0
            assert v_new == pytest.approx(1.2, rel=2.0 / v + v * 1e-15)

    def test_repeated_incorporation_shrinks_variance(self):
        net = new_uniform([1, 1])
        net.lam = GammaDist(6.0, 6.0)
        sites = Sites.zeros(net)
        incorporate_prior_factor(net, 0, 0, 0, sites)
        prev = net.layers[0].variances[0, 0]
        for _ in range(10):
            incorporate_prior_factor(net, 0, 0, 0, sites)
            cur = net.layers[0].variances[0, 0]
            assert cur < prev
            prev = cur

    def test_tiny_variance_update_bounded(self):
        net = new_uniform([1, 1])
        net.lam = GammaDist(6.0, 6.0)
        sites = Sites.zeros(net)
        net.layers[0].means[0, 0] = 0.5
        net.layers[0].variances[0, 0] = 1e-6
        incorporate_prior_factor(net, 0, 0, 0, sites)
        total = 1.2 + 1e-6
        assert abs(net.layers[0].means[0, 0] - 0.5) <= 1e-6 * abs(0.5 / total) * 1.01


def one_run_step(stack, x, y):
    """incorporate_likelihood_factors on a one-run stack."""
    return one_step(stack, np.asarray(x)[None, :], np.array([y]))


class TestIncorporateLikelihoodFactor:
    def test_same_point_twice_shrinks_predictive_variance(self):
        rng = np.random.default_rng(3)
        net = random_net([1, 1, 1], rng, mean_scale=0.5, var_low=0.5, var_high=1.0)
        stack = PosteriorStack.of([net])
        x = np.array([0.8])
        _, v0 = output_moments(stack.run(0), x)
        one_run_step(stack, x, 0.3)
        _, v1 = output_moments(stack.run(0), x)
        one_run_step(stack, x, 0.3)
        _, v2 = output_moments(stack.run(0), x)
        assert v1 < v0
        assert v2 < v1

    def test_undo_restores_exact_values(self, monkeypatch):
        rng = np.random.default_rng(9)
        stack = PosteriorStack.of([random_net([2, 3, 1], rng)])
        layer = stack.layers[0]
        real_backward = conftest.backward_gradients

        def sabotaged(stack, y):
            real_backward(stack, y)
            # Force a guaranteed-negative refined variance for one weight.
            stack.workspace.d_mean_views[0][0, 1, 2] = 1e6
            stack.workspace.d_variance_views[0][0, 1, 2] = 0.0

        monkeypatch.setattr(conftest, "backward_gradients", sabotaged)
        m_before = layer.means[0, 1, 2]
        v_before = layer.variances[0, 1, 2]
        other_before = layer.means[0, 0, 0]
        # Through the per-example driver, whose gradients come from the
        # patched seam.
        outcome = step_by_phases(stack, np.array([[0.5, -0.2]]), np.array([0.1]))
        assert not outcome.skipped[0]
        assert outcome.undo_count[0] == 1
        assert layer.means[0, 1, 2] == m_before
        assert layer.variances[0, 1, 2] == v_before
        assert layer.means[0, 0, 0] != other_before

    def test_large_residual_grows_noise_estimate(self):
        rng = np.random.default_rng(12)
        net = random_net([1, 2, 1], rng, var_low=0.01, var_high=0.05)
        stack = PosteriorStack.of([net])
        one_run_step(stack, np.array([0.1]), 50.0)
        g = stack.run(0).gamma
        assert g.shape / g.rate < net.gamma.shape / net.gamma.rate

    def test_gamma_update_matches_quadrature_direction_and_size(self):
        rng = np.random.default_rng(30)
        net = random_net([1, 2, 1], rng)
        x = np.array([0.4])
        y = 2.5
        mz, vz = output_moments(net, x)

        g = net.gamma
        factor = student_t_factor(y - mz, vz)
        e1, _ = gamma_tilted_moments_quadrature(g, factor)
        stack = PosteriorStack.of([net])
        one_run_step(stack, x, y)
        # The collapsed-Gaussian Z triple is an approximation; the matched mean
        # must land close to the exact tilted mean.
        g = stack.run(0).gamma
        assert g.shape / g.rate == pytest.approx(e1, rel=0.05)


class TestEpRefreshPrior:
    def _trained_state(self):
        from pbp.data import Dataset, normalize
        from pbp.posterior import PbpConfig
        from pbp.training import train

        rng = np.random.default_rng(5)
        x = rng.uniform(-4, 4, 20)
        y = x**3 + rng.normal(0, 3, 20)
        ds, _ = normalize(Dataset(x[:, None], y))
        cfg = PbpConfig(hidden_layer_sizes=(15,), epochs=10, seed=5)
        net, sites, _ = train(ds, cfg, np.random.default_rng(5))
        return net, Sites(sites, net.layer_sizes)

    def test_refresh_reaches_and_holds_fixed_point(self):
        net, sites = self._trained_state()
        converged = False
        for _ in range(30):
            rep = refresh_one_run(net, sites)
            if rep.max_abs_change < 1e-8:
                converged = True
                break
        assert converged, "EP refresh failed to reach its fixed point"
        rep = refresh_one_run(net, sites)
        assert rep.max_abs_change < 1e-8

    def test_single_factor_refresh_is_exact_noop(self):
        net = new_uniform([1, 1])
        net.lam = GammaDist(6.0, 6.0)
        net.gamma = GammaDist(6.0, 6.0)
        sites = Sites.zeros(net)
        incorporate_one_run(net, sites)
        from pbp.posterior import perturb_means

        perturb_means(net, np.random.default_rng(0))
        m0 = net.layers[0].means.copy()
        v0 = net.layers[0].variances.copy()
        for _ in range(3):
            rep = refresh_one_run(net, sites)
            assert rep.max_abs_change == 0.0
            assert rep.sites_skipped == 0
        assert np.array_equal(net.layers[0].means, m0)
        assert np.array_equal(net.layers[0].variances, v0)

    def test_negative_cavity_precision_skips_site(self):
        net, sites = self._trained_state()
        # Inflate one site's precision beyond the marginal's: invalid cavity.
        sites.precision[0][0, 0] = 1.0 / net.layers[0].variances[0, 0] + 5.0
        m = net.layers[0].means[0, 0]
        v = net.layers[0].variances[0, 0]
        rep = refresh_one_run(net, sites)
        assert rep.sites_skipped == 1
        assert net.layers[0].means[0, 0] == m
        assert net.layers[0].variances[0, 0] == v

    def test_refresh_keeps_variances_positive_and_shapes_above_one(self):
        net, sites = self._trained_state()
        for _ in range(5):
            refresh_one_run(net, sites)
        for layer in net.layers:
            assert np.all(layer.variances > 0.0)
        assert net.lam.shape > 1.0
        assert net.gamma.shape > 1.0
