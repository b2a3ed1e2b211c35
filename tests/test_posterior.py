import dataclasses
import math

import numpy as np
import pytest

from pbp.posterior import (
    HYPERPRIOR,
    GammaDist,
    PbpConfig,
    PosteriorStack,
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


def perturbed(sizes, seeds):
    """A stack of uniform networks of sizes, run r's means perturbed from a
    generator seeded seeds[r]."""
    stack = PosteriorStack.of([new_uniform(sizes) for _ in seeds])
    perturb_means(stack, [np.random.default_rng(seed) for seed in seeds])
    return stack


class TestPerturbMeans:
    def test_deterministic_under_seed(self):
        a = perturbed([3, 7, 1], [9])
        b = perturbed([3, 7, 1], [9])
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.means, lb.means)

    def test_variances_untouched(self):
        stack = PosteriorStack.of([new_uniform([3, 7, 1])])
        before = [l.variances.copy() for l in stack.layers]
        perturb_means(stack, [np.random.default_rng(1)])
        for layer, b in zip(stack.layers, before):
            assert np.array_equal(layer.variances, b)

    def test_empirical_variance_matches_fan(self):
        # Layer with 50 output units and 10^5 weights: the sample variance of
        # the perturbations must sit within 5% of 1/(50+1).
        stack = perturbed([1999, 50, 1], [123])
        draws = stack.layers[0].means.ravel()
        assert draws.size == 100_000
        assert np.var(draws) == pytest.approx(1.0 / 51.0, rel=0.05)

    def test_each_run_draws_its_layers_in_turn_from_its_own_rng(self):
        # Run r's means are rngs[r]'s draws of each layer's (rows, cols)
        # matrix in turn, scaled by sqrt(1 / (rows + 1)), bit for bit.
        stack = perturbed([4, 6, 3, 1], [5, 6, 7])
        for r, seed in enumerate([5, 6, 7]):
            rng = np.random.default_rng(seed)
            for layer in stack.layers:
                shape = layer.means.shape[1:]
                want = rng.standard_normal(shape) * math.sqrt(1.0 / (shape[0] + 1))
                assert layer.means[r].tobytes() == want.tobytes()


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
