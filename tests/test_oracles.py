import math

import numpy as np
import pytest

from conftest import random_net, weights
from oracles import (
    OracleError,
    _sample_network_output,
    _sample_network_output_by_weights,
    gamma_tilted_moments_quadrature,
    mc_forward_moments,
)


class TestMcForwardMoments:
    def test_deterministic_net_has_zero_variance(self):
        net = random_net([2, 3, 1], np.random.default_rng(1))
        net.variances[...] = 0.0
        est = mc_forward_moments(net, np.array([0.3, 0.7]), 10_000, np.random.default_rng(0))
        assert est.variance < 1e-20

    def test_single_relu_unit_mean(self):
        # Hidden pre-activation w/sqrt(2) with w ~ N(0,2) is standard normal;
        # a deterministic sqrt(2) output weight undoes the output scaling, so
        # the network output is max(0, N(0,1)) with mean 1/sqrt(2 pi).
        net = random_net([1, 1, 1], np.random.default_rng(2))
        means, variances = weights(net)
        means[0][...] = np.array([[0.0, 0.0]])
        variances[0][...] = np.array([[2.0, 0.0]])
        means[1][...] = np.array([[math.sqrt(2.0), 0.0]])
        variances[1][...] = np.array([[0.0, 0.0]])
        est = mc_forward_moments(net, np.array([1.0]), 10**6, np.random.default_rng(3))
        assert est.mean == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=4 * est.mean_se)

    def test_standard_error_scaling(self):
        net = random_net([2, 4, 1], np.random.default_rng(5))
        x = np.array([0.2, -0.4])
        small = mc_forward_moments(net, x, 50_000, np.random.default_rng(1))
        large = mc_forward_moments(net, x, 200_000, np.random.default_rng(1))
        ratio = small.mean_se / large.mean_se
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_determinism_under_seed(self):
        net = random_net([2, 4, 1], np.random.default_rng(5))
        x = np.array([0.2, -0.4])
        a = mc_forward_moments(net, x, 40_000, np.random.default_rng(9))
        b = mc_forward_moments(net, x, 40_000, np.random.default_rng(9))
        assert a.mean == b.mean and a.variance == b.variance

    def test_deterministic_net_has_zero_standard_errors(self):
        net = random_net([2, 3, 1], np.random.default_rng(1))
        net.variances[...] = 0.0
        for x in (np.array([0.3, 0.7]), np.array([0.2, -0.4])):
            est = mc_forward_moments(net, x, 10_000, np.random.default_rng(0))
            assert est.variance >= 0.0
            assert est.mean_se < 1e-20
            assert est.variance_se < 1e-20

    @pytest.mark.parametrize("chunk", [20_000, 7_000])
    def test_invariant_to_output_shift(self, chunk):
        # A shift of the output bias mean leaves every weight draw unchanged,
        # so the spread of the output must not move with it.
        x = np.array([0.2, -0.4])
        net = random_net([2, 4, 1], np.random.default_rng(5))
        base = mc_forward_moments(net, x, 40_000, np.random.default_rng(2), chunk=chunk)
        weights(net)[0][-1][0, -1] += 1e6
        shifted = mc_forward_moments(net, x, 40_000, np.random.default_rng(2), chunk=chunk)
        assert shifted.variance == pytest.approx(base.variance, rel=1e-9)
        assert shifted.variance_se == pytest.approx(base.variance_se, rel=1e-9)

    def test_chunk_merge_matches_single_pass(self):
        # Redraw the same samples (one spawned substream per chunk, uneven
        # last chunk) and compare the merged moments with one centred pass.
        net = random_net([2, 4, 1], np.random.default_rng(5))
        x = np.array([0.2, -0.4])
        est = mc_forward_moments(net, x, 40_000, np.random.default_rng(4), chunk=7_000)
        streams = np.random.default_rng(4).spawn(6)
        counts = [7_000] * 5 + [5_000]
        out = np.concatenate(
            [_sample_network_output(net, x, c, s) for c, s in zip(counts, streams)]
        )
        d = out - out.mean()
        m2, m4 = np.mean(d**2), np.mean(d**4)
        assert est.mean == pytest.approx(out.mean(), rel=1e-12)
        assert est.variance == pytest.approx(out.var(ddof=1), rel=1e-12)
        assert est.mean_se == pytest.approx(math.sqrt(m2 / out.size), rel=1e-12)
        assert est.variance_se == pytest.approx(math.sqrt((m4 - m2 * m2) / out.size), rel=1e-12)

    def test_local_reparameterization_matches_weight_sampling(self):
        # The sampler behind mc_forward_moments draws each layer's
        # pre-activations given its input; the cross-check draws every
        # weight. Both must give the same output distribution, checked by
        # mean and variance within 3 standard errors of the difference, on a
        # net deep enough that the hidden layers' outputs are not Gaussian.
        net = random_net(
            [3, 6, 5, 1], np.random.default_rng(13), mean_scale=0.8, var_low=0.02, var_high=0.5
        )
        x = np.array([0.5, -1.0, 0.3])
        n = 200_000
        stats = []
        for sample in (_sample_network_output, _sample_network_output_by_weights):
            out = sample(net, x, n, np.random.default_rng(14))
            d = out - out.mean()
            m2, m4 = np.mean(d**2), np.mean(d**4)
            stats.append((out.mean(), out.var(ddof=1), m2 / n, (m4 - m2 * m2) / n))
        (mean_a, var_a, mse_a, vse_a), (mean_b, var_b, mse_b, vse_b) = stats
        assert abs(mean_a - mean_b) < 3 * math.sqrt(mse_a + mse_b)
        assert abs(var_a - var_b) < 3 * math.sqrt(vse_a + vse_b)

    def test_too_few_samples_rejected(self):
        net = random_net([2, 3, 1], np.random.default_rng(1))
        with pytest.raises(ValueError):
            mc_forward_moments(net, np.zeros(2), 100, np.random.default_rng(0))


class TestGammaQuadrature:
    def test_constant_factor_recovers_gamma_moments(self):
        g = (6.0, 6.0)
        e1, e2 = gamma_tilted_moments_quadrature(g, lambda x: 1.0)
        assert e1 == pytest.approx(1.0, rel=1e-9)
        assert e2 == pytest.approx(6.0 * 7.0 / 36.0, rel=1e-9)

    def test_monomial_factor_is_conjugate(self):
        # factor = x tilts Gamma(a, b) to Gamma(a+1, b).
        g = (3.0, 2.0)
        e1, e2 = gamma_tilted_moments_quadrature(g, lambda x: x)
        assert e1 == pytest.approx(4.0 / 2.0, rel=1e-9)
        assert e2 == pytest.approx(4.0 * 5.0 / 4.0, rel=1e-9)

    def test_exponential_factor_is_conjugate(self):
        # factor = exp(-c x) tilts Gamma(a, b) to Gamma(a, b + c).
        g = (5.0, 1.5)
        c = 0.7
        e1, e2 = gamma_tilted_moments_quadrature(g, lambda x: math.exp(-c * x))
        assert e1 == pytest.approx(5.0 / 2.2, rel=1e-9)
        assert e2 == pytest.approx(5.0 * 6.0 / 2.2**2, rel=1e-9)

    def test_tolerance_self_check(self):
        g = (6.0, 6.0)
        factor = lambda x: math.exp(-0.5 * (x - 1.0) ** 2)
        a1, a2 = gamma_tilted_moments_quadrature(g, factor, rel_tol=1e-9)
        b1, b2 = gamma_tilted_moments_quadrature(g, factor, rel_tol=5e-10)
        assert abs(a1 - b1) / b1 < 1e-9
        assert abs(a2 - b2) / b2 < 1e-9

    def test_negative_factor_rejected(self):
        g = (6.0, 6.0)
        with pytest.raises(OracleError):
            gamma_tilted_moments_quadrature(g, lambda x: -1.0)

    def test_uniform_gamma_rejected(self):
        with pytest.raises(ValueError):
            gamma_tilted_moments_quadrature((1.0, 0.0), lambda x: 1.0)
