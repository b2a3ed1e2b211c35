import math

import numpy as np
import pytest

from pbp.posterior import (
    GammaDist,
    PbpConfig,
    new_uniform,
    perturb_means,
)


class TestNewUniform:
    def test_shapes_boston_like(self):
        net = new_uniform([13, 50, 1])
        assert [l.means.shape for l in net.layers] == [(50, 14), (1, 51)]
        assert all(np.all(l.means == 0.0) for l in net.layers)
        assert all(np.all(np.isinf(l.variances)) for l in net.layers)

    def test_single_weight_plus_bias(self):
        net = new_uniform([1, 1])
        assert [l.means.shape for l in net.layers] == [(1, 2)]

    def test_three_hidden(self):
        net = new_uniform([4, 3, 2, 1])
        assert [l.means.shape for l in net.layers] == [(3, 5), (2, 4), (1, 3)]

    def test_uniform_gamma_state(self):
        net = new_uniform([2, 3, 1])
        for g in (net.gamma, net.lam):
            assert g.shape == 1.0 and g.rate == 0.0

    @pytest.mark.parametrize("sizes", [[], [5], [3, 0, 1], [3, 5, 2], [0, 1]])
    def test_invalid_sizes_rejected(self, sizes):
        with pytest.raises(ValueError):
            new_uniform(sizes)


class TestPerturbMeans:
    def test_deterministic_under_seed(self):
        a = perturb_means(new_uniform([3, 7, 1]), np.random.default_rng(9))
        b = perturb_means(new_uniform([3, 7, 1]), np.random.default_rng(9))
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.means, lb.means)

    def test_variances_untouched(self):
        net = new_uniform([3, 7, 1])
        before = [l.variances.copy() for l in net.layers]
        perturb_means(net, np.random.default_rng(1))
        for layer, b in zip(net.layers, before):
            assert np.array_equal(layer.variances, b)

    def test_empirical_variance_matches_fan(self):
        # Layer with 50 output units and 10^5 weights: the sample variance of
        # the perturbations must sit within 5% of 1/(50+1).
        net = new_uniform([1999, 50, 1])
        perturb_means(net, np.random.default_rng(123))
        draws = net.layers[0].means.ravel()
        assert draws.size == 100_000
        assert np.var(draws) == pytest.approx(1.0 / 51.0, rel=0.05)


class TestGammaDist:
    def test_mean(self):
        assert GammaDist(6.0, 6.0).mean() == 1.0

    def test_mean_undefined_for_uniform_state(self):
        with pytest.raises(ValueError):
            GammaDist(1.0, 0.0).mean()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GammaDist(0.0, 1.0)
        with pytest.raises(ValueError):
            GammaDist(1.0, -1.0)


def test_config_defaults_match_protocol():
    cfg = PbpConfig()
    assert cfg.epochs == 40
    assert cfg.prior_shape_lambda == 6.0 == cfg.prior_rate_lambda
    assert cfg.prior_shape_gamma == 6.0 == cfg.prior_rate_gamma


@pytest.mark.parametrize(
    "field, value",
    [
        ("prior_shape_lambda", 0.5),   # a negative prior variance
        ("prior_shape_lambda", 1.0),   # b / (a - 1) divides by zero
        ("prior_rate_lambda", 0.0),    # a zero prior variance
        ("prior_rate_lambda", math.inf),
        ("prior_shape_gamma", 1.0),    # every example skipped
        ("prior_shape_gamma", math.nan),
        ("prior_rate_gamma", -1.0),
        ("prior_shape_lambda", math.inf),
    ],
)
def test_config_rejects_priors_the_gaussian_collapse_cannot_use(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite and > "):
        PbpConfig(**{field: value})


def test_clone_is_independent():
    net = new_uniform([2, 3, 1])
    other = net.clone()
    other.layers[0].means[0, 0] = 5.0
    assert net.layers[0].means[0, 0] == 0.0
