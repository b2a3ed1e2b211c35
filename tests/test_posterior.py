import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from conftest import one_step, toy_cubic_dataset, weights
from pbp import forward
from pbp.data import Dataset, normalize
from pbp.prediction import TrainedModel, predict_batch
from pbp.training import train, train_runs
from pbp.posterior import (
    HYPERPRIOR,
    PbpConfig,
    layer_views,
    new_uniform,
    perturb_means,
)


class TestNewUniform:
    def test_shapes_boston_like(self):
        means, variances = weights(new_uniform([13, 50, 1]))
        assert [m.shape for m in means] == [(50, 14), (1, 51)]
        assert all(np.all(m == 0.0) for m in means)
        assert all(np.all(np.isinf(v)) for v in variances)

    def test_single_weight_plus_bias(self):
        means, _ = weights(new_uniform([1, 1]))
        assert [m.shape for m in means] == [(1, 2)]

    def test_three_hidden(self):
        means, _ = weights(new_uniform([4, 3, 2, 1]))
        assert [m.shape for m in means] == [(3, 5), (2, 4), (1, 3)]

    def test_uniform_gamma_state(self):
        stack = new_uniform([2, 3, 1], 3)
        for g in (stack.gamma, stack.lam):
            assert g.tolist() == [[1.0] * 3, [0.0] * 3]

    @pytest.mark.parametrize("sizes", [[], [5], [3, 0, 1], [3, 5, 2], [0, 1]])
    def test_invalid_sizes_rejected(self, sizes):
        with pytest.raises(ValueError):
            new_uniform(sizes)


def perturbed(sizes, seeds):
    """A stack of uniform networks of sizes, run r's means perturbed from a
    generator seeded seeds[r]."""
    stack = new_uniform(sizes, len(seeds))
    perturb_means(stack, [np.random.default_rng(seed) for seed in seeds])
    return stack


class TestPerturbMeans:
    def test_deterministic_under_seed(self):
        a = perturbed([3, 7, 1], [9])
        b = perturbed([3, 7, 1], [9])
        for la, lb in zip(weights(a)[0], weights(b)[0]):
            assert np.array_equal(la, lb)

    def test_variances_untouched(self):
        stack = new_uniform([3, 7, 1])
        before = [v.copy() for v in weights(stack)[1]]
        perturb_means(stack, [np.random.default_rng(1)])
        for v, b in zip(weights(stack)[1], before):
            assert np.array_equal(v, b)

    def test_empirical_variance_matches_fan(self):
        # Layer with 50 output units and 10^5 weights: the sample variance of
        # the perturbations must sit within 5% of 1/(50+1).
        stack = perturbed([1999, 50, 1], [123])
        draws = weights(stack)[0][0].ravel()
        assert draws.size == 100_000
        assert np.var(draws) == pytest.approx(1.0 / 51.0, rel=0.05)

    def test_each_run_draws_its_layers_in_turn_from_its_own_rng(self):
        # Run r's means are rngs[r]'s draws of each layer's (rows, cols)
        # matrix in turn, scaled by sqrt(1 / (rows + 1)), bit for bit.
        stack = perturbed([4, 6, 3, 1], [5, 6, 7])
        for r, seed in enumerate([5, 6, 7]):
            rng = np.random.default_rng(seed)
            for means in layer_views(stack.means, stack.layer_sizes):
                shape = means.shape[1:]
                want = rng.standard_normal(shape) * math.sqrt(1.0 / (shape[0] + 1))
                assert means[r].tobytes() == want.tobytes()


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


def _trained(kind, monkeypatch):
    """(what is copied, its stack, its NormStats) of one kind of training:
    a `train` stack, a `train_runs` stack of 8 runs trained in two run
    groups, or a TrainedModel."""
    cfg = PbpConfig(hidden_layer_sizes=(4,), epochs=2)
    if kind == "grouped":
        monkeypatch.setattr(forward, "usable_cpus", lambda: 2)
        sets = Dataset.of([toy_cubic_dataset(20, seed) for seed in range(8)])
        train_set, norm = normalize(sets)
        stack, _, _ = train_runs(train_set, cfg, [np.random.default_rng(r) for r in range(8)])
        return stack, stack, norm
    train_set, norm = normalize(toy_cubic_dataset(20, 3))
    stack, _, _ = train(train_set, cfg, np.random.default_rng(3))
    return (TrainedModel(stack, norm, cfg) if kind == "model" else stack), stack, norm


@pytest.mark.parametrize("copied", [copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))],
                         ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("kind", ["train", "grouped", "model"])
def test_a_trained_stack_copies_without_its_kernel_bindings(monkeypatch, kind, copied):
    # A copy holds the stack's arrays, copied, and binds the kernel again
    # on first use: it predicts, and takes a step, with the original's bits.
    original, stack, norm = _trained(kind, monkeypatch)
    duplicate = copied(original)
    twin = duplicate.stack if kind == "model" else duplicate
    assert twin.workspace is None and twin.refresh is None and twin.layer_sizes == stack.layer_sizes
    for name in ("means", "variances", "gamma", "lam"):
        a, b = getattr(twin, name), getattr(stack, name)
        assert a.tobytes() == b.tobytes() and not np.shares_memory(a, b), name
    x = np.random.default_rng(5).uniform(-4.0, 4.0, (stack.means.shape[0], 7, 1))
    assert [a.tobytes() for a in predict_batch(twin, norm, x)] == [
        a.tobytes() for a in predict_batch(stack, norm, x)
    ]
    for each in (twin, stack):
        one_step(each, x[:, 0], np.zeros(stack.means.shape[0]))
    assert [a.tobytes() for a in (twin.means, twin.variances, twin.gamma)] == [
        a.tobytes() for a in (stack.means, stack.variances, stack.gamma)
    ]
