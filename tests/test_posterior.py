import dataclasses

import numpy as np
import pytest

from pbp.posterior import (
    HYPERPRIOR,
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
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GammaDist(0.0, 1.0)
        with pytest.raises(ValueError):
            GammaDist(1.0, -1.0)


def test_config_defaults_match_protocol():
    cfg = PbpConfig()
    assert cfg.epochs == 40
    assert HYPERPRIOR == (6.0, 6.0)


def test_config_has_no_refresh_setting():
    # The prior sites are refreshed once per pass over the data: a schedule,
    # not a setting.
    assert [f.name for f in dataclasses.fields(PbpConfig)] == [
        "hidden_layer_sizes",
        "epochs",
        "seed",
    ]
    with pytest.raises(TypeError):
        PbpConfig(refresh_every_n_examples=5)
