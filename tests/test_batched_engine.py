"""The lockstep engine against the per-example training loop.

`reference_train` is the one-run, one-example-at-a-time schedule that
`train_runs` replaces. Every run of a batch must match it bit for bit: the
batch changes how the work is dispatched, never the arithmetic of a run.
"""

import numpy as np
import pytest

import pbp.training as training
import pbp.updates as updates
from conftest import toy_cubic_dataset
from pbp.data import Dataset, normalize, split
from pbp.forward import forward_output_moments_batch
from pbp.posterior import GammaDist, PbpConfig, new_uniform, perturb_means
from pbp.training import SkipRateError, TrainReport, train, train_runs
from pbp.updates import (
    PriorSiteStore,
    ep_refresh_prior,
    incorporate_all_prior_factors,
    incorporate_likelihood_factor,
)


def reference_train(dataset, config, rng):
    """One run, one example at a time: the schedule of `train`, unbatched."""
    n = len(dataset.targets)
    layer_sizes = [dataset.features.shape[1], *config.hidden_layer_sizes, 1]
    net = new_uniform(layer_sizes)
    net.gamma = GammaDist(config.prior_shape_gamma, config.prior_rate_gamma)
    net.lam = GammaDist(config.prior_shape_lambda, config.prior_rate_lambda)

    sites = PriorSiteStore.zeros(net)
    incorporate_all_prior_factors(net, sites)
    perturb_means(net, rng)

    report = TrainReport()
    refresh_every = config.refresh_every_n_examples or n
    since_refresh = 0
    for _epoch in range(config.epochs):
        skipped_this_epoch = 0
        for idx in rng.permutation(n):
            outcome = incorporate_likelihood_factor(
                net, dataset.features[idx], float(dataset.targets[idx])
            )
            if outcome.skipped:
                skipped_this_epoch += 1
            report.undo_events += outcome.undo_count
            report.weight_updates += outcome.weight_updates
            since_refresh += 1
            if since_refresh >= refresh_every:
                ep_refresh_prior(net, sites)
                since_refresh = 0

        report.examples_skipped += skipped_this_epoch
        report.epochs_run += 1
        means, _ = forward_output_moments_batch(net, dataset.features)
        report.epoch_rmse.append(float(np.sqrt(np.mean((means - dataset.targets) ** 2))))
        if skipped_this_epoch > training.MAX_SKIP_RATE * n:
            raise SkipRateError(f"{skipped_this_epoch}/{n} examples skipped")
    return net, sites, report


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_same_run(got, want):
    """Bit equality of posterior, Gammas, prior sites, RMSE trace and counters."""
    (net, sites, report), (ref_net, ref_sites, ref_report) = got, want
    for layer, ref_layer in zip(net.layers, ref_net.layers, strict=True):
        assert _bits(layer.means) == _bits(ref_layer.means)
        assert _bits(layer.variances) == _bits(ref_layer.variances)
    assert net.gamma == ref_net.gamma
    assert net.lam == ref_net.lam
    for name in ("precision", "precision_mean", "lam_shape", "lam_rate"):
        for a, b in zip(getattr(sites, name), getattr(ref_sites, name), strict=True):
            assert _bits(a) == _bits(b), name
    assert _bits(report.epoch_rmse) == _bits(ref_report.epoch_rmse)
    assert report.epochs_run == ref_report.epochs_run
    assert report.undo_events == ref_report.undo_events
    assert report.examples_skipped == ref_report.examples_skipped
    assert report.weight_updates == ref_report.weight_updates


def split_runs(runs, n_rows=40, seed=21):
    """Normalized training sets of equal size, one per run, as `pbp benchmark`
    draws them: each run's split and training share one rng."""
    dataset = toy_cubic_dataset(n_rows, seed)
    datasets, seeds = [], []
    for r in range(runs):
        rng = np.random.default_rng(100 + r)
        train_set, _ = split(dataset, 0.1, rng)
        datasets.append(normalize(train_set)[0])
        seeds.append(rng.bit_generator.state)
    return datasets, seeds


def rng_at(state):
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


@pytest.mark.parametrize("refresh", [None, 5])
@pytest.mark.parametrize("hidden", [(4,), (3, 3)])
@pytest.mark.parametrize("runs", [1, 3])
def test_every_run_matches_the_per_example_loop(runs, hidden, refresh):
    datasets, states = split_runs(runs)
    cfg = PbpConfig(hidden_layer_sizes=hidden, epochs=3, refresh_every_n_examples=refresh)
    batch = train_runs(datasets, cfg, [rng_at(s) for s in states])
    for got, ds, state in zip(batch, datasets, states, strict=True):
        assert_same_run(got, reference_train(ds, cfg, rng_at(state)))


def test_train_is_the_one_run_case():
    [ds], [state] = split_runs(1)
    cfg = PbpConfig(hidden_layer_sizes=(3, 3), epochs=2, refresh_every_n_examples=5)
    assert_same_run(train(ds, cfg, rng_at(state)), reference_train(ds, cfg, rng_at(state)))


def test_run_alone_equals_run_inside_a_batch():
    datasets, states = split_runs(3)
    cfg = PbpConfig(hidden_layer_sizes=(4,), epochs=2)
    batch = train_runs(datasets, cfg, [rng_at(s) for s in states])
    [alone] = train_runs([datasets[1]], cfg, [rng_at(states[1])])
    assert_same_run(batch[1], alone)


def test_forced_undo_matches(monkeypatch):
    real_backward = updates.backward_gradients

    def sabotaged(net, trace, y):
        grads = real_backward(net, trace, y)
        # Force a guaranteed-negative refined variance for one weight per run.
        grads.d_means[0][..., 1, 1] = 1e6
        grads.d_variances[0][..., 1, 1] = 0.0
        return grads

    monkeypatch.setattr(updates, "backward_gradients", sabotaged)
    datasets, states = split_runs(3)
    cfg = PbpConfig(hidden_layer_sizes=(3, 3), epochs=2)
    batch = train_runs(datasets, cfg, [rng_at(s) for s in states])
    for got, ds, state in zip(batch, datasets, states):
        want = reference_train(ds, cfg, rng_at(state))
        assert want[2].undo_events == cfg.epochs * len(ds)
        assert_same_run(got, want)


def test_run_that_skips_an_example_leaves_the_others_untouched(monkeypatch):
    # A NaN target gives a non-finite log Z: run 1 skips that example, while
    # runs 0 and 2 update on the same steps.
    monkeypatch.setattr(training, "MAX_SKIP_RATE", 1.0)
    datasets, states = split_runs(3)
    targets = datasets[1].targets.copy()
    targets[4] = np.nan
    datasets[1] = Dataset(datasets[1].features, targets)
    cfg = PbpConfig(hidden_layer_sizes=(4,), epochs=2)
    batch = train_runs(datasets, cfg, [rng_at(s) for s in states])
    for got, ds, state in zip(batch, datasets, states):
        assert_same_run(got, reference_train(ds, cfg, rng_at(state)))
    assert [report.examples_skipped for _, _, report in batch] == [0, 2, 0]


def test_skip_rate_error_names_the_run_and_epoch(monkeypatch):
    monkeypatch.setattr(training, "MAX_SKIP_RATE", 0.0)
    datasets, states = split_runs(3)
    targets = datasets[2].targets.copy()
    targets[0] = np.nan
    datasets[2] = Dataset(datasets[2].features, targets)
    cfg = PbpConfig(hidden_layer_sizes=(4,), epochs=2)
    with pytest.raises(SkipRateError, match=r"^split 2: 1/36 examples skipped in epoch 1$"):
        train_runs(datasets, cfg, [rng_at(s) for s in states], ["split 0", "split 1", "split 2"])


def test_unequal_training_sets_rejected():
    a, b = toy_cubic_dataset(10, 1), toy_cubic_dataset(11, 2)
    cfg = PbpConfig(hidden_layer_sizes=(3,), epochs=1)
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    with pytest.raises(ValueError, match="equal training-set sizes"):
        train_runs([normalize(a)[0], normalize(b)[0]], cfg, rngs)
