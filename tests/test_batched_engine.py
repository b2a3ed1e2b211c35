"""The lockstep engine against the per-example training loop.

`reference_train` is the one-run, one-example-at-a-time schedule that
`train_runs` replaces, updating through the frozen per-network step of
`reference_update` and the per-weight prior loops of `reference_prior`. Every run of a batch must match it bit for bit: the batch
changes how the work is dispatched and where it is stored, never the
arithmetic of a run.
"""

import gc
import weakref

import numpy as np
import pytest

import pbp.training as training
import pbp.updates as updates
import reference_update
from conftest import random_net, toy_cubic_dataset
from pbp.data import Dataset, normalize, split
from reference_forward import forward_output_moments_batch
from reference_update import incorporate_likelihood_factor
from pbp.posterior import GammaDist, PbpConfig, PosteriorStack, new_uniform, perturb_means
from pbp.training import SkipRateError, TrainReport, train, train_runs
from pbp.updates import PriorSiteStore, incorporate_likelihood_factors
from reference_prior import ep_refresh_prior, incorporate_all_prior_factors


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


def sabotage(real_backward, index=(..., 1, 1)):
    """real_backward, forcing a guaranteed-negative refined variance for the
    input-layer weight at index (by default weight (1, 1) of every run)."""

    def sabotaged(net, trace, y):
        grads = real_backward(net, trace, y)
        grads.d_means[0][index] = 1e6
        grads.d_variances[0][index] = 0.0
        return grads

    return sabotaged


def test_forced_undo_matches(monkeypatch):
    # The engine's gradients are views into the stack's flat buffer: writes
    # through them reach the refinement.
    monkeypatch.setattr(updates, "backward_gradients", sabotage(updates.backward_gradients))
    monkeypatch.setattr(
        reference_update, "backward_gradients", sabotage(reference_update.backward_gradients)
    )
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


def test_run_whose_squared_residual_overflows_skips_the_example(monkeypatch):
    # A 1e160 target overflows the squared residual of the log-Z triple: run 1
    # skips that example in every epoch, and run 0 trains as it would alone.
    monkeypatch.setattr(training, "MAX_SKIP_RATE", 1.0)
    datasets, states = split_runs(2)
    targets = datasets[1].targets.copy()
    targets[4] = 1e160
    datasets[1] = Dataset(datasets[1].features, targets)
    cfg = PbpConfig(hidden_layer_sizes=(4,), epochs=2)
    # Run 1's epoch RMSE overflows too, to inf.
    with pytest.warns(RuntimeWarning, match="overflow"):
        batch = train_runs(datasets, cfg, [rng_at(s) for s in states])
    [alone] = train_runs([datasets[0]], cfg, [rng_at(states[0])])
    assert_same_run(batch[0], alone)
    assert batch[1][2].examples_skipped == cfg.epochs
    assert batch[1][2].epoch_rmse == [np.inf] * cfg.epochs


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


def step_nets(sizes, runs, seed):
    rng = np.random.default_rng(seed)
    return [random_net(sizes, rng, mean_scale=0.5) for _ in range(runs)], rng


def assert_step_matches_reference(nets, xs, ys):
    """One lockstep step on a stack of copies of nets against the frozen
    per-network step on each net alone, gradients included; returns the stack
    and its outcome."""
    stack = PosteriorStack.of([net.clone() for net in nets])
    outcome = incorporate_likelihood_factors(stack, xs, ys)
    ws = stack.workspace
    for r, net in enumerate(nets):
        if not outcome.skipped[r]:
            _, _, trace = reference_update.forward_trace(net, xs[r])
            grads = reference_update.backward_gradients(net, trace, float(ys[r]))
            for got_dm, got_dv, dm, dv in zip(
                ws.d_mean_views, ws.d_variance_views, grads.d_means, grads.d_variances, strict=True
            ):
                assert _bits(got_dm[r]) == _bits(dm), r
                assert _bits(got_dv[r]) == _bits(dv), r
        ref = net.clone()
        want = incorporate_likelihood_factor(ref, xs[r], float(ys[r]))
        got = stack.run(r)
        for layer, ref_layer in zip(got.layers, ref.layers, strict=True):
            assert _bits(layer.means) == _bits(ref_layer.means), r
            assert _bits(layer.variances) == _bits(ref_layer.variances), r
        assert got.gamma == ref.gamma
        assert bool(outcome.skipped[r]) == want.skipped
        assert outcome.undo_count[r] == want.undo_count
        assert outcome.weight_updates[r] == want.weight_updates
    return stack, outcome


def test_step_on_the_all_valid_path_matches_the_reference():
    nets, rng = step_nets([3, 5, 4, 1], 3, 40)
    stack, outcome = assert_step_matches_reference(
        nets, rng.normal(size=(3, 3)), rng.normal(size=3)
    )
    relu = [rec.relu for rec in stack.workspace.trace.records[:-1]]
    assert all(aux.deterministic is None and aux.series is None for aux in relu)
    assert outcome.undo_count.tolist() == [0, 0, 0]


def test_step_with_a_deterministic_unit_in_one_run_matches_the_reference():
    # Run 0's first hidden unit has weight variances of 1e-40, so its
    # pre-activation variance falls below the 1e-30 exact-limit cutoff.
    nets, rng = step_nets([3, 5, 4, 1], 3, 41)
    nets[0].layers[0].variances[0] = 1e-40
    stack, _ = assert_step_matches_reference(nets, rng.normal(size=(3, 3)), rng.normal(size=3))
    det = stack.workspace.trace.records[0].relu.deterministic
    assert det[:, 0, 0].tolist() == [True, False, False]
    assert not det[..., 1:].any()


def test_step_with_a_far_tail_unit_in_one_run_matches_the_reference():
    # Run 2's first hidden unit has weight means of -40 on positive inputs:
    # alpha is about -150, in the asymptotic-series branch.
    nets, rng = step_nets([3, 5, 4, 1], 3, 42)
    nets[2].layers[0].means[0] = -40.0
    xs = rng.uniform(0.5, 1.5, size=(3, 3))
    stack, _ = assert_step_matches_reference(nets, xs, rng.normal(size=3))
    series = stack.workspace.trace.records[0].relu.series
    assert series[:, 0, 0].tolist() == [False, False, True]
    assert not series[..., 1:].any()


def test_step_with_an_undone_weight_in_one_run_matches_the_reference(monkeypatch):
    nets, rng = step_nets([3, 5, 4, 1], 3, 43)
    xs, ys = rng.normal(size=(3, 3)), rng.normal(size=3)
    refs = [net.clone() for net in nets]
    wants = [incorporate_likelihood_factor(refs[r], xs[r], float(ys[r])) for r in (0, 2)]
    monkeypatch.setattr(
        reference_update,
        "backward_gradients",
        sabotage(reference_update.backward_gradients, (2, 3)),
    )
    wants.insert(1, incorporate_likelihood_factor(refs[1], xs[1], float(ys[1])))
    monkeypatch.setattr(
        updates, "backward_gradients", sabotage(updates.backward_gradients, (1, 2, 3))
    )
    stack = PosteriorStack.of([net.clone() for net in nets])
    outcome = incorporate_likelihood_factors(stack, xs, ys)

    assert outcome.undo_count.tolist() == [want.undo_count for want in wants] == [0, 1, 0]
    for r, ref in enumerate(refs):
        for layer, ref_layer in zip(stack.run(r).layers, ref.layers, strict=True):
            assert _bits(layer.means) == _bits(ref_layer.means), r
            assert _bits(layer.variances) == _bits(ref_layer.variances), r
        assert stack.gammas[r] == ref.gamma
    assert stack.layers[0].means[1, 2, 3] == nets[1].layers[0].means[2, 3]


def test_step_with_a_nan_target_in_one_run_of_three_matches_the_reference():
    nets, rng = step_nets([3, 5, 4, 1], 3, 44)
    ys = np.array([0.3, np.nan, -0.2])
    stack, outcome = assert_step_matches_reference(nets, rng.normal(size=(3, 3)), ys)
    assert outcome.skipped.tolist() == [False, True, False]
    assert _bits(stack.means[1]) == _bits(PosteriorStack.of([nets[1]]).means[0])


def test_stack_layers_and_runs_are_views_of_one_buffer():
    nets, _ = step_nets([3, 4, 2, 1], 3, 45)
    stack = PosteriorStack.of(nets)
    assert stack.means.shape == stack.variances.shape == (3, 4 * 4 + 2 * 5 + 3)
    for r, net in enumerate(nets):
        flat = np.concatenate([layer.means.ravel() for layer in net.layers])
        assert _bits(stack.means[r]) == _bits(flat)
    for layer in stack.layers:
        assert np.shares_memory(layer.means, stack.means)
        assert np.shares_memory(layer.variances, stack.variances)
    run = stack.run(1)
    run.layers[1].means[0, 2] = 7.0
    assert stack.means[1, 16 + 2] == 7.0
    stack.layers[0].variances[2, 3, 1] = 5.0
    assert stack.variances[2, 3 * 4 + 1] == 5.0
    assert run.layers[0].variances[3, 1] != 5.0
    means, variances = stack.means, stack.variances
    incorporate_likelihood_factors(stack, np.ones((3, 3)), np.zeros(3))
    assert stack.means is means and stack.variances is variances
    assert np.shares_memory(run.layers[0].means, stack.means)
    assert run.layers[1].means[0, 2] == stack.means[1, 16 + 2] != 7.0


def test_no_workspace_outlives_its_train_runs_call(monkeypatch):
    refs, ids = [], set()
    real = training.incorporate_likelihood_factors

    def spy(stack, x, y):
        outcome = real(stack, x, y)
        refs.append(weakref.ref(stack.workspace))
        ids.add(id(stack.workspace))
        return outcome

    monkeypatch.setattr(training, "incorporate_likelihood_factors", spy)
    datasets, states = split_runs(2)
    cfg = PbpConfig(hidden_layer_sizes=(4,), epochs=2)
    results = train_runs(datasets, cfg, [rng_at(s) for s in states])
    # One workspace served every step, and it went with its stack, without
    # waiting for the cycle collector.
    assert len(refs) == 2 * len(datasets[0].targets) and len(ids) == 1
    assert refs[0]() is None
    gc.collect()
    assert refs[0]() is None
    assert [report.epochs_run for _, _, report in results] == [2, 2]
