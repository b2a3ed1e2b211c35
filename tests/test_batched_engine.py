"""The lockstep engine against the per-example training loop.

`reference_train` is the one-run, one-example-at-a-time schedule that
`train_runs` replaces, updating through the frozen per-network step of
`reference_update` and the per-weight prior loops of `reference_prior`. Every run of a batch must match it bit for bit: the batch
changes how the work is dispatched and where it is stored, never the
arithmetic of a run.
"""

import dataclasses
import gc
import math
import sys
import warnings
import weakref

import numpy as np
import pytest

import conftest
import pbp.forward as forward
import pbp.training as training
import reference_update
from conftest import (
    each_run, epoch_by_phases, one_step, random_net, relu_moments, stack_of, step_by_phases,
    toy_cubic_dataset, train_runs_tracing_rmse, weights,
)
from pbp.data import Dataset, normalize, split
from reference_forward import forward_output_moments_batch
from reference_update import GradientStore, MomentVector, incorporate_likelihood_factor
from pbp.posterior import HYPERPRIOR, NumericError, PbpConfig, layer_views, new_uniform, perturb_means
from pbp.training import SkipRateError, TrainReport, check_variances, train, train_runs
from pbp.updates import incorporate_likelihood_factors
from reference_prior import Sites, ep_refresh_prior, incorporate_all_prior_factors


def reference_train(dataset, config, rng):
    """One run, one example at a time: the schedule of `train`, unbatched,
    with the training RMSE after each epoch as train_runs_tracing_rmse takes
    it."""
    n = len(dataset.targets)
    layer_sizes = [dataset.features.shape[1], *config.hidden_layer_sizes, 1]
    net = new_uniform(layer_sizes)
    net.gamma[:, 0] = net.lam[:, 0] = HYPERPRIOR

    sites = Sites.zeros(net)
    incorporate_all_prior_factors(net, sites)
    # The mean perturbation as a lone network draws it: each layer's
    # (rows, cols) means in turn.
    for means in weights(net)[0]:
        means[...] = rng.standard_normal(means.shape) * math.sqrt(1.0 / (means.shape[0] + 1))

    report, rmse = TrainReport(), []
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
        ep_refresh_prior(net, sites)

        report.examples_skipped += skipped_this_epoch
        report.epochs_run += 1
        means, _ = forward_output_moments_batch(net, dataset.features)
        rmse.append(float(np.sqrt(np.mean((means - dataset.targets) ** 2))))
        if skipped_this_epoch > training.MAX_SKIP_RATE * n:
            raise SkipRateError(f"{skipped_this_epoch}/{n} examples skipped")
    return net, sites.flat, report, rmse


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_same_run(got, want):
    """Bit equality of posterior, Gammas, prior sites, RMSE trace and counters."""
    (net, sites, report, rmse), (ref_net, ref_sites, ref_report, ref_rmse) = got, want
    for layer, ref_layer in zip(zip(*weights(net)), zip(*weights(ref_net)), strict=True):
        assert _bits(layer[0]) == _bits(ref_layer[0])
        assert _bits(layer[1]) == _bits(ref_layer[1])
    assert np.array_equal(net.gamma, ref_net.gamma)
    assert np.array_equal(net.lam, ref_net.lam)
    assert sites.shape == ref_sites.shape
    assert _bits(sites) == _bits(ref_sites)
    assert _bits(rmse) == _bits(ref_rmse)
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


@pytest.mark.parametrize("hidden", [(4,), (3, 3)])
@pytest.mark.parametrize("runs", [1, 3])
def test_every_run_matches_the_per_example_loop(monkeypatch, runs, hidden):
    datasets, states = split_runs(runs)
    cfg = PbpConfig(hidden_layer_sizes=hidden, epochs=3)
    batch = train_runs_tracing_rmse(monkeypatch, datasets, cfg, [rng_at(s) for s in states])
    for got, ds, state in zip(batch, datasets, states, strict=True):
        assert_same_run(got, reference_train(ds, cfg, rng_at(state)))


@pytest.mark.parametrize("runs", [1, 3])
def test_one_row_training_sets_match_the_per_example_loop(monkeypatch, runs):
    # One example per run: each epoch is one step and one EP refresh, traced
    # by a training-RMSE pass of one row per run.
    rng = np.random.default_rng(31)
    datasets = [Dataset(rng.normal(size=(1, 2)), rng.normal(size=1)) for _ in range(runs)]
    states = [np.random.default_rng(60 + r).bit_generator.state for r in range(runs)]
    cfg = PbpConfig(hidden_layer_sizes=(3, 3), epochs=4)
    batch = train_runs_tracing_rmse(monkeypatch, datasets, cfg, [rng_at(s) for s in states])
    for got, ds, state in zip(batch, datasets, states, strict=True):
        assert_same_run(got, reference_train(ds, cfg, rng_at(state)))


def test_train_is_the_one_run_case(monkeypatch):
    [ds], [state] = split_runs(1)
    cfg = PbpConfig(hidden_layer_sizes=(3, 3), epochs=2)
    [traced] = train_runs_tracing_rmse(monkeypatch, [ds], cfg, [rng_at(state)])
    want = reference_train(ds, cfg, rng_at(state))
    assert_same_run(traced, want)
    assert_same_run((*train(ds, cfg, rng_at(state)), traced[3]), want)


def test_run_alone_equals_run_inside_a_batch(monkeypatch):
    datasets, states = split_runs(3)
    cfg = PbpConfig(hidden_layer_sizes=(4,), epochs=2)
    batch = train_runs_tracing_rmse(monkeypatch, datasets, cfg, [rng_at(s) for s in states])
    [alone] = train_runs_tracing_rmse(monkeypatch, [datasets[1]], cfg, [rng_at(states[1])])
    assert_same_run(batch[1], alone)


def sabotage(real_backward, index=(..., 1, 1)):
    """real_backward, forcing a guaranteed-negative refined variance for the
    input-layer weight at index (by default weight (1, 1) of every run). The
    reference returns its gradients; conftest.backward_gradients leaves them
    in the stack's workspace."""

    def sabotaged(net, *args):
        grads = real_backward(net, *args) or GradientStore(
            net.workspace.d_mean_views, net.workspace.d_variance_views
        )
        grads.d_means[0][index] = 1e6
        grads.d_variances[0][index] = 0.0
        return grads

    return sabotaged


def test_forced_undo_matches(monkeypatch):
    # The engine's gradients are views into the stack's flat buffer: writes
    # through them reach the refinement. Training takes its examples through
    # the per-example driver, whose gradients come from the patched seam.
    monkeypatch.setattr(training, "incorporate_likelihood_factors", epoch_by_phases)
    monkeypatch.setattr(conftest, "backward_gradients", sabotage(conftest.backward_gradients))
    monkeypatch.setattr(
        reference_update, "backward_gradients", sabotage(reference_update.backward_gradients)
    )
    datasets, states = split_runs(3)
    cfg = PbpConfig(hidden_layer_sizes=(3, 3), epochs=2)
    batch = train_runs_tracing_rmse(monkeypatch, datasets, cfg, [rng_at(s) for s in states])
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
    batch = train_runs_tracing_rmse(monkeypatch, datasets, cfg, [rng_at(s) for s in states])
    for got, ds, state in zip(batch, datasets, states):
        assert_same_run(got, reference_train(ds, cfg, rng_at(state)))
    assert [report.examples_skipped for _, _, report, _ in batch] == [0, 2, 0]


def test_run_whose_squared_residual_overflows_skips_the_example(monkeypatch):
    # A 1e160 target overflows the squared residual of the log-Z triple: run 1
    # skips that example in every epoch, and run 0 trains as it would alone.
    monkeypatch.setattr(training, "MAX_SKIP_RATE", 1.0)
    datasets, states = split_runs(2)
    targets = datasets[1].targets.copy()
    targets[4] = 1e160
    datasets[1] = Dataset(datasets[1].features, targets)
    cfg = PbpConfig(hidden_layer_sizes=(4,), epochs=2)
    # Run 1's training RMSE overflows too, to inf.
    with pytest.warns(RuntimeWarning, match="overflow"):
        batch = train_runs_tracing_rmse(monkeypatch, datasets, cfg, [rng_at(s) for s in states])
    [alone] = train_runs_tracing_rmse(monkeypatch, [datasets[0]], cfg, [rng_at(states[0])])
    assert_same_run(batch[0], alone)
    assert batch[1][2].examples_skipped == cfg.epochs
    assert batch[1][3] == [np.inf] * cfg.epochs


def test_without_the_epoch_rmse_every_run_keeps_its_bits(monkeypatch):
    # train_runs runs no training-RMSE pass, and tracing one moves no bit:
    # the posteriors, Gammas, sites, counters and refreshes are those of the
    # traced training, and run 1, whose 1e160 target the traced pass squares
    # to inf, raises no overflow warning.
    monkeypatch.setattr(training, "MAX_SKIP_RATE", 1.0)
    datasets, states = split_runs(3)
    targets = datasets[1].targets.copy()
    targets[4] = 1e160
    datasets[1] = Dataset(datasets[1].features, targets)
    cfg = PbpConfig(hidden_layer_sizes=(4,), epochs=3)
    with pytest.warns(RuntimeWarning, match="overflow"):
        traced = train_runs_tracing_rmse(monkeypatch, datasets, cfg, [rng_at(s) for s in states])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bare = each_run(train_runs(Dataset.of(datasets), cfg, [rng_at(s) for s in states]))
    for run, want in zip(bare, traced, strict=True):
        assert_same_run((*run, want[3]), want)
        assert run[2].refreshes == want[2].refreshes
    assert bare[1][2].examples_skipped == cfg.epochs


def test_skip_rate_error_names_the_run_and_epoch(monkeypatch):
    monkeypatch.setattr(training, "MAX_SKIP_RATE", 0.0)
    datasets, states = split_runs(3)
    targets = datasets[2].targets.copy()
    targets[0] = np.nan
    datasets[2] = Dataset(datasets[2].features, targets)
    cfg = PbpConfig(hidden_layer_sizes=(4,), epochs=2)
    with pytest.raises(SkipRateError, match=r"^split 2: 1/36 examples skipped in epoch 1$"):
        train_runs(Dataset.of(datasets), cfg, [rng_at(s) for s in states], ["split 0", "split 1", "split 2"])


def test_unequal_training_sets_rejected():
    # A stack holds runs of one size: features of 10 rows per run do not
    # train with targets of 11.
    a, b = normalize(toy_cubic_dataset(10, 1))[0], normalize(toy_cubic_dataset(11, 2))[0]
    cfg = PbpConfig(hidden_layer_sizes=(3,), epochs=1)
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    with pytest.raises(ValueError, match="equal training-set sizes"):
        train_runs(Dataset(np.stack([a.features] * 2), np.stack([b.targets] * 2)), cfg, rngs)


def step_nets(sizes, runs, seed):
    rng = np.random.default_rng(seed)
    return [random_net(sizes, rng, mean_scale=0.5) for _ in range(runs)], rng


def assert_step_matches_reference(nets, xs, ys, step=one_step):
    """One lockstep step (by default step_epoch's, or step_by_phases) on a
    stack of copies of nets against the frozen per-network step on each net
    alone, gradients included; returns the stack and its outcome."""
    stack = stack_of(nets)
    outcome = step(stack, xs, ys)
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
        ref = net.take([0])
        want = incorporate_likelihood_factor(ref, xs[r], float(ys[r]))
        for layer, ref_layer in zip(zip(*weights(stack, r)), zip(*weights(ref)), strict=True):
            assert _bits(layer[0]) == _bits(ref_layer[0]), r
            assert _bits(layer[1]) == _bits(ref_layer[1]), r
        assert np.array_equal(stack.gamma[:, r], ref.gamma[:, 0])
        assert bool(outcome.skipped[r]) == want.skipped
        assert outcome.undo_count[r] == want.undo_count
        assert outcome.weight_updates[r] == want.weight_updates
    return stack, outcome


def test_step_on_the_all_valid_path_matches_the_reference():
    nets, rng = step_nets([3, 5, 4, 1], 3, 40)
    stack, outcome = assert_step_matches_reference(
        nets, rng.normal(size=(3, 3)), rng.normal(size=3)
    )
    relu = stack.workspace.rectifiers
    assert all(aux.n_deterministic == 0 and aux.n_series == 0 for aux in relu)
    assert outcome.undo_count.tolist() == [0, 0, 0]


def test_step_with_a_deterministic_unit_in_one_run_matches_the_reference():
    # Run 0's first hidden unit has weight variances of 1e-40, so its
    # pre-activation variance falls below the 1e-30 exact-limit cutoff.
    nets, rng = step_nets([3, 5, 4, 1], 3, 41)
    weights(nets[0])[1][0][0] = 1e-40
    stack, _ = assert_step_matches_reference(nets, rng.normal(size=(3, 3)), rng.normal(size=3))
    det = stack.workspace.rectifiers[0].deterministic
    assert det[:, 0, 0].tolist() == [True, False, False]
    assert not det[..., 1:].any()


def test_step_with_a_far_tail_unit_in_one_run_matches_the_reference():
    # Run 2's first hidden unit has weight means of -40 on positive inputs:
    # alpha is about -150, in the asymptotic-series branch.
    nets, rng = step_nets([3, 5, 4, 1], 3, 42)
    weights(nets[2])[0][0][0] = -40.0
    xs = rng.uniform(0.5, 1.5, size=(3, 3))
    stack, _ = assert_step_matches_reference(nets, xs, rng.normal(size=3))
    series = stack.workspace.rectifiers[0].series
    assert series[:, 0, 0].tolist() == [False, False, True]
    assert not series[..., 1:].any()


def test_step_with_an_undone_weight_in_one_run_matches_the_reference(monkeypatch):
    nets, rng = step_nets([3, 5, 4, 1], 3, 43)
    xs, ys = rng.normal(size=(3, 3)), rng.normal(size=3)
    refs = [net.take([0]) for net in nets]
    wants = [incorporate_likelihood_factor(refs[r], xs[r], float(ys[r])) for r in (0, 2)]
    monkeypatch.setattr(
        reference_update,
        "backward_gradients",
        sabotage(reference_update.backward_gradients, (2, 3)),
    )
    wants.insert(1, incorporate_likelihood_factor(refs[1], xs[1], float(ys[1])))
    monkeypatch.setattr(
        conftest, "backward_gradients", sabotage(conftest.backward_gradients, (1, 2, 3))
    )
    stack = stack_of(nets)
    outcome = step_by_phases(stack, xs, ys)

    assert outcome.undo_count.tolist() == [want.undo_count for want in wants] == [0, 1, 0]
    for r, ref in enumerate(refs):
        for layer, ref_layer in zip(zip(*weights(stack, r)), zip(*weights(ref)), strict=True):
            assert _bits(layer[0]) == _bits(ref_layer[0]), r
            assert _bits(layer[1]) == _bits(ref_layer[1]), r
        assert np.array_equal(stack.gamma[:, r], ref.gamma[:, 0])
    assert weights(stack, 1)[0][0][2, 3] == weights(nets[1])[0][0][2, 3]


def test_step_with_a_negative_pre_activation_variance_raises_before_any_write():
    # Negative weight variances give run 1's first hidden unit a negative
    # pre-activation variance, which the step's forward call refuses.
    nets, rng = step_nets([3, 5, 4, 1], 3, 47)
    weights(nets[1])[1][0][0] = -5.0
    stack = stack_of(nets)
    before = [_bits(a) for a in (stack.means, stack.variances, stack.gamma)]
    with pytest.raises(NumericError, match="^negative pre-activation variance"):
        one_step(stack, rng.normal(size=(3, 3)), rng.normal(size=3))
    assert [_bits(a) for a in (stack.means, stack.variances, stack.gamma)] == before


def test_step_with_a_nan_target_in_one_run_of_three_matches_the_reference():
    nets, rng = step_nets([3, 5, 4, 1], 3, 44)
    ys = np.array([0.3, np.nan, -0.2])
    stack, outcome = assert_step_matches_reference(nets, rng.normal(size=(3, 3)), ys)
    assert outcome.skipped.tolist() == [False, True, False]
    assert _bits(stack.means[1]) == _bits(nets[1].means[0])


# The pre-activations a fuzzed step may force on one hidden unit: means of
# +0.0 and -0.0, negative and positive, at a variance of 0 or below the
# deterministic cutoff. force_unit reaches them through the unit's weights,
# where a mean of -0.0 gives +0.0; the rectifier's -0.0 is checked alone
# (test_a_signed_zero_pre_activation_rectifies_as_the_reference).
FORCED_UNITS = [(0.0, 0.0), (-0.0, 0.0), (-0.7, 0.0), (1.3, 0.0), (-2e-20, 1e-40), (3e-20, 1e-31)]


def fuzz_step_case(rng, runs=None):
    """A seeded lockstep step: nets of 1-3 hidden layers of 1-60 units, 1-6
    runs (or `runs`) with their own noise Gammas, inputs and targets. Some runs get a
    unit in the deterministic branch (zero or sub-cutoff variance), one in
    the far-tail series branch, inflated variances (which undo weights), a
    NaN target or one whose squared residual overflows."""
    features = int(rng.integers(1, 9))
    hidden = rng.integers(1, 61, size=int(rng.integers(1, 4))).tolist()
    runs = int(rng.integers(1, 7)) if runs is None else runs
    scale = float(rng.choice([0.3, 1.0, 2.0]))
    nets = [random_net([features, *hidden, 1], rng, mean_scale=scale) for _ in range(runs)]
    xs = rng.normal(size=(runs, features))
    ys = rng.normal(0.0, 2.0, size=runs)
    for r, net in enumerate(nets):
        net.gamma[:, 0] = (float(rng.uniform(1.5, 20.0)), float(rng.uniform(0.1, 20.0)))
        l = int(rng.integers(len(hidden)))
        unit = int(rng.integers(hidden[l]))
        means, variances = weights(net)
        kind = rng.random()
        if kind < 0.15:
            # Zero variance: deterministic, with the input layer's mean x . m,
            # and a mean of 0 in a deeper layer, whose inputs are random.
            variances[l][unit] = 0.0
            if l > 0:
                means[l][unit] = 0.0
        elif kind < 0.25:
            means[l][unit] = rng.normal(0.0, 1e-20, means[l].shape[1])
            variances[l][unit] = 1e-40
        elif kind < 0.35:
            # alpha <= -40 (sum |x| + 1) / sqrt(sum x^2 v) <= -40, v <= 1.
            means[0][unit % hidden[0], :-1] = -40.0 * np.sign(xs[r])
            means[0][unit % hidden[0], -1] = -40.0
        elif kind < 0.45:
            variances[l][unit] *= 1e4
        elif kind < 0.52:
            ys[r] = np.nan
        elif kind < 0.59:
            ys[r] = 1e160
    return nets, xs, ys


def force_unit(nets, hidden_layer, unit, mean, variance):
    """Give one unit of one hidden layer of every net the pre-activation
    moments (mean, variance), up to rounding, whatever its inputs: zero
    weight means but the bias's, mean * sqrt(cols), and zero weight
    variances but the bias's, variance * cols."""
    for net in nets:
        means, variances = (views[hidden_layer] for views in weights(net))
        cols = means.shape[1]
        means[unit] = 0.0
        means[unit, -1] = mean * math.sqrt(cols)
        variances[unit] = 0.0
        variances[unit, -1] = variance * cols


def test_fuzzed_steps_match_the_reference(monkeypatch):
    # Every tenth case also forces an undo in every run (see sabotage), and
    # every seventh forces one hidden unit's pre-activation (FORCED_UNITS).
    rng = np.random.default_rng(1400)
    seen = {"deterministic": 0, "series": 0, "skipped": 0, "undone": 0}
    for case in range(500):
        nets, xs, ys = fuzz_step_case(rng)
        step = one_step
        with monkeypatch.context() as m:
            if case % 10 == 9:
                rows, cols = weights(nets[0])[0][0].shape
                index = (..., int(rng.integers(rows)), int(rng.integers(cols)))
                for module in (conftest, reference_update):
                    m.setattr(module, "backward_gradients", sabotage(module.backward_gradients, index))
                step = step_by_phases
            if case % 7 == 6:
                means = weights(nets[0])[0]
                l = int(rng.integers(len(means) - 1))
                unit = int(rng.integers(means[l].shape[0]))
                force_unit(nets, l, unit, *FORCED_UNITS[(case // 7) % len(FORCED_UNITS)])
            stack, outcome = assert_step_matches_reference(nets, xs, ys, step)
        if outcome.skipped.all():
            seen["skipped"] += 1
            continue
        relu = stack.workspace.rectifiers
        seen["deterministic"] += any(aux.n_deterministic > 0 for aux in relu)
        seen["series"] += any(aux.n_series > 0 for aux in relu)
        seen["skipped"] += bool(outcome.skipped.any())
        seen["undone"] += bool(outcome.undo_count.any())
    assert min(seen.values()) >= 20, seen


def fuzz_epoch_case(rng, runs=None):
    """A seeded epoch of 1-8 examples per run on the nets of fuzz_step_case,
    whose first example it is. The later inputs keep the first one's signs,
    which keeps a far-tail unit in the series branch; about a twentieth of
    the targets are NaN or overflow their squared residual (skips); and some
    runs get one weight variance of 1e155, whose square overflows in the
    refinement (an undo that comes from the data, with no patched seam)."""
    nets, x, y = fuzz_step_case(rng, runs)
    n, (runs, features) = int(rng.integers(1, 9)), x.shape
    xs = x * rng.uniform(0.5, 2.0, size=(n, runs, features))
    xs[0] = x
    ys = rng.normal(0.0, 2.0, size=(n, runs))
    ys[0] = y
    edge = rng.random((n, runs)) < 0.05
    ys[edge] = rng.choice([np.nan, 1e160], edge.sum())
    for net in nets:
        if rng.random() < 0.2:
            variances = weights(net)[1]
            layer = variances[int(rng.integers(len(variances)))]
            layer[int(rng.integers(layer.shape[0])), int(rng.integers(layer.shape[1]))] = 1e155
    return nets, xs, ys


def test_the_per_example_driver_matches_step_epoch_on_fuzzed_stacks():
    # step_epoch folds an epoch into a stack in one call; the tests' driver
    # (epoch_by_phases) runs the same steps one phase at a time, through the
    # seams that other tests patch. Both must leave the same bits.
    rng = np.random.default_rng(1900)
    seen = {"deterministic": 0, "series": 0, "skipped": 0, "undone": 0}
    for case in range(200):
        nets, xs, ys = fuzz_epoch_case(rng)
        folded, driven = (stack_of(nets) for _ in range(2))
        outcome = incorporate_likelihood_factors(folded, xs, ys)
        counts = np.zeros((3, len(nets)), dtype=np.int64)
        branches = set()
        for x, y in zip(xs, ys):
            step = step_by_phases(driven, x, y)
            counts += (step.skipped, step.undo_count, step.weight_updates)
            relu = driven.workspace.rectifiers
            branches |= {"deterministic"} if any(aux.n_deterministic for aux in relu) else set()
            branches |= {"series"} if any(aux.n_series for aux in relu) else set()
            branches |= {"skipped"} if step.skipped.any() else set()
            branches |= {"undone"} if step.undo_count.any() else set()
        for name in branches:
            seen[name] += 1
        got = (outcome.skipped, outcome.undo_count, outcome.weight_updates)
        assert [a.tolist() for a in got] == counts.tolist(), case
        for name in ("means", "variances", "gamma"):
            assert _bits(getattr(folded, name)) == _bits(getattr(driven, name)), (case, name)
        # The last gradients, where some example was not skipped by every run.
        for name in ("d_means", "d_variances") if (counts[0] < len(xs)).any() else ():
            got, want = (getattr(stack.workspace, name) for stack in (folded, driven))
            assert _bits(got) == _bits(want), (case, name)
    assert min(seen.values()) >= 20, seen


def epoch_on_cpus(monkeypatch, cpus, nets, xs, ys):
    """incorporate_likelihood_factors of xs and ys into a stack of copies of
    nets with `cpus` usable CPUs: the stack, and the outcome's three counts
    or the error raised, as (type, message, run)."""
    stack = stack_of(nets)
    monkeypatch.setattr(forward, "usable_cpus", lambda: cpus)
    try:
        outcome = incorporate_likelihood_factors(stack, xs, ys)
    except (ArithmeticError, NumericError) as error:
        return stack, (type(error), str(error), error.run)
    return stack, [a.tolist() for a in (outcome.skipped, outcome.undo_count, outcome.weight_updates)]


def assert_same_epoch(got, want):
    (stack, result), (ref_stack, ref_result) = got, want
    assert result == ref_result
    for name in ("means", "variances", "gamma", "lam"):
        assert _bits(getattr(stack, name)) == _bits(getattr(ref_stack, name)), name


def fuzzed_start(monkeypatch, nets):
    """Have train_runs start its epochs from the means, variances and noise
    Gammas of nets, run after run: training.perturb_means draws as it does,
    then writes them into the stack. A weight variance of 0, which the EP
    refresh refuses, starts at 1e-40, which keeps its unit deterministic."""
    start = stack_of(nets)
    start.variances[start.variances == 0.0] = 1e-40

    def perturb_then_start(stack, rngs):
        perturb_means(stack, rngs)
        for name in ("means", "variances", "gamma"):
            getattr(stack, name)[...] = getattr(start, name)

    monkeypatch.setattr(training, "perturb_means", perturb_then_start)


def fuzz_training(rng, runs):
    """fuzz_epoch_case as a training of 2 epochs: the nets it starts from
    (see fuzzed_start), its stack of training sets, each run's generator
    state and the config."""
    nets, xs, ys = fuzz_epoch_case(rng, runs)
    train = Dataset(np.ascontiguousarray(xs.swapaxes(0, 1)), np.ascontiguousarray(ys.T))
    states = [np.random.default_rng(seed).bit_generator.state for seed in rng.integers(2**32, size=runs)]
    return nets, train, states, PbpConfig(tuple(nets[0].layer_sizes[1:-1]), epochs=2)


def training_on_cpus(monkeypatch, cpus, train, cfg, rngs, labels=None):
    """train_runs of train with `cpus` usable CPUs: the trained stack, its
    sites and each run's report but its seconds, or the error raised as
    (type, message); and the states of rngs after."""
    monkeypatch.setattr(forward, "usable_cpus", lambda: cpus)
    try:
        stack, sites, reports = train_runs(train, cfg, rngs, labels)
        result = stack, sites, [dataclasses.replace(report, seconds=0.0) for report in reports]
    except (ArithmeticError, NumericError, SkipRateError) as error:
        result = type(error), str(error)
    return result, [rng.bit_generator.state for rng in rngs]


def assert_same_training(got, want):
    (result, states), (ref_result, ref_states) = got, want
    assert states == ref_states
    if isinstance(ref_result[0], type):  # an error
        assert result == ref_result
        return
    (stack, sites, reports), (ref_stack, ref_sites, ref_reports) = result, ref_result
    for name in ("means", "variances", "gamma", "lam"):
        assert _bits(getattr(stack, name)) == _bits(getattr(ref_stack, name)), name
    assert _bits(sites) == _bits(ref_sites)
    assert reports == ref_reports


def spy_trainings(monkeypatch):
    """The run count of each stack whose epochs train_runs trains, a run
    group's or the whole stack's, and the item count of each dispatch of
    train_runs (training._run_items): two lists that fill as it runs."""
    stacks, dispatches = [], []
    train_epochs, run_items = training._train_epochs, training._run_items

    def spy_epochs(stack, *args):
        stacks.append(stack.means.shape[0])
        return train_epochs(stack, *args)

    def spy_items(work, items, parallel):
        dispatches.append(len(items))
        return run_items(work, items, parallel)

    monkeypatch.setattr(training, "_train_epochs", spy_epochs)
    monkeypatch.setattr(training, "_run_items", spy_items)
    return stacks, dispatches


def group_sizes(runs, cpus):
    """The run counts of the run groups of a stack of runs on cpus CPUs."""
    count = max(1, min(cpus, runs // forward.GROUP_RUNS))
    bounds = [runs * k // count for k in range(count + 1)]
    return [stop - start for start, stop in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("runs", [8, 9, 20])
def test_a_training_in_run_groups_keeps_the_bits_of_one_cpu(monkeypatch, runs):
    # On 2 and 5 CPUs the stack trains as run groups, each a stack of its
    # own on its own thread, in one dispatch and with no rerun; the trainings
    # of fuzz_training leave every bit, report and generator as on one CPU,
    # deterministic and far-tail units, skips and undos included.
    monkeypatch.setattr(training, "MAX_SKIP_RATE", 1.0)
    rng = np.random.default_rng(2800 + runs)
    seen = {"deterministic": 0, "series": 0, "skipped": 0, "undone": 0}
    branches = []

    def check_and_see(stack, labels, epoch):
        check_variances(stack, labels, epoch)
        relu = stack.workspace.rectifiers
        branches.append((any(aux.n_deterministic for aux in relu), any(aux.n_series for aux in relu)))

    monkeypatch.setattr(training, "check_variances", check_and_see)
    stacks, dispatches = spy_trainings(monkeypatch)
    for case in range(8):
        nets, train, states, cfg = fuzz_training(rng, runs)
        fuzzed_start(monkeypatch, nets)
        one = training_on_cpus(monkeypatch, 1, train, cfg, [rng_at(s) for s in states])
        _, _, reports = one[0]
        branches.clear()
        for cpus in (2, 5):
            del stacks[:], dispatches[:]
            got = training_on_cpus(monkeypatch, cpus, train, cfg, [rng_at(s) for s in states])
            assert_same_training(got, one)
            assert dispatches == [len(group_sizes(runs, cpus))], (case, cpus)
            assert sorted(stacks) == sorted(group_sizes(runs, cpus)), (case, cpus)
        seen["deterministic"] += any(deterministic for deterministic, _ in branches)
        seen["series"] += any(series for _, series in branches)
        seen["skipped"] += any(report.examples_skipped for report in reports)
        seen["undone"] += any(report.undo_events for report in reports)
    assert min(seen.values()) >= 5, seen


def test_run_groups_on_more_threads_than_cpus_keep_the_bits(monkeypatch):
    # Five groups of four runs on five threads, switching every microsecond:
    # each trains only its own copy of its rows and sites, and writes them
    # back once every group has trained.
    rng = np.random.default_rng(2950)
    train = Dataset(rng.normal(size=(20, 30, 4)), rng.normal(size=(20, 30)))
    cfg = PbpConfig(hidden_layer_sizes=(8,), epochs=2)
    states = [np.random.default_rng(2950 + r).bit_generator.state for r in range(20)]
    one = training_on_cpus(monkeypatch, 1, train, cfg, [rng_at(s) for s in states])
    stacks, _ = spy_trainings(monkeypatch)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        five = training_on_cpus(monkeypatch, 5, train, cfg, [rng_at(s) for s in states])
    finally:
        sys.setswitchinterval(interval)
    assert_same_training(five, one)
    assert stacks == [4] * 5


def shape_one_case(runs, first, last):
    """A stack of runs and an epoch of 3 in which run first + 1 has a noise
    shape of exactly 1.0 and the runs first..last NaN targets: these runs
    skip every example, and every other run keeps every example."""
    nets, rng = step_nets([2, 5, 1], runs, 2900)
    for net in nets:
        net.gamma[:, 0] = (6.0, 6.0)
    nets[first + 1].gamma[:, 0] = (1.0, 6.0)
    xs, ys = rng.normal(size=(3, runs, 2)), rng.normal(size=(3, runs))
    ys[:, first:last + 1] = np.nan
    return nets, xs, ys


def shape_one_training(runs, first, last):
    """shape_one_case as a training of 2 epochs, as fuzz_training gives it."""
    nets, xs, ys = shape_one_case(runs, first, last)
    train = Dataset(np.ascontiguousarray(xs.swapaxes(0, 1)), np.ascontiguousarray(ys.T))
    states = [np.random.default_rng(2900 + r).bit_generator.state for r in range(runs)]
    return nets, train, states, PbpConfig((5,), epochs=2)


@pytest.mark.parametrize("cpus", [1, 2, 5])
def test_every_run_of_a_stack_is_its_lone_run(monkeypatch, cpus):
    # Each run of a stack, in run groups or not, leaves the bits, report and
    # generator of a training of that run alone: on fuzzed stacks of 8 and
    # 20 runs, and on a run with a noise shape of exactly 1.0, which skips
    # every example in a stack as alone, in a group that skips too or one
    # that keeps them (run 3 of 8, beside runs 0 and 1).
    monkeypatch.setattr(training, "MAX_SKIP_RATE", 1.0)
    rng = np.random.default_rng(2910)
    cases = [fuzz_training(rng, runs) for runs in (8, 20) for _ in range(3)]
    cases += [shape_one_training(8, 0, 3), shape_one_training(20, 10, 19), shape_one_training(8, 2, 2)]
    stacks, _ = spy_trainings(monkeypatch)
    for case, (nets, train, states, cfg) in enumerate(cases):
        fuzzed_start(monkeypatch, nets)
        del stacks[:]
        (stack, sites, reports), after = training_on_cpus(
            monkeypatch, cpus, train, cfg, [rng_at(s) for s in states]
        )
        assert sorted(stacks) == sorted(group_sizes(len(nets), cpus)), case
        for r, net in enumerate(nets):
            fuzzed_start(monkeypatch, [net])
            lone = Dataset(train.features[r:r + 1], train.targets[r:r + 1])
            (alone, alone_sites, [report]), [state] = training_on_cpus(
                monkeypatch, 1, lone, cfg, [rng_at(states[r])]
            )
            assert (reports[r], after[r]) == (report, state), (case, r)
            for got, want in [(stack.means[r], alone.means[0]),
                              (stack.variances[r], alone.variances[0]),
                              (stack.gamma[:, r], alone.gamma[:, 0]),
                              (stack.lam[:, r], alone.lam[:, 0]),
                              (sites[:, r], alone_sites[:, 0])]:
                assert _bits(got) == _bits(want), (case, r)


def test_a_noise_shape_of_one_skipped_by_every_run_raises_nothing(monkeypatch):
    # Where every run skips every example, no run moves, on one CPU or two;
    # the run at a noise shape of 1.0 ends the epoch on it.
    nets, xs, ys = shape_one_case(8, 0, 3)
    ys[...] = np.nan
    one = epoch_on_cpus(monkeypatch, 1, nets, xs, ys)
    assert one[1] == [[3] * 8, [0] * 8, [0] * 8]
    assert_same_epoch(epoch_on_cpus(monkeypatch, 2, nets, xs, ys), one)


def zero_noise_rate(stack, r):
    # Run r's Gamma match divides by its noise rate of 0 at its next example.
    stack.gamma[1, r] = 0.0


def negative_variance(stack, r):
    # Run r's first hidden unit gets a negative pre-activation variance,
    # which the forward pass refuses without naming the run.
    weights(stack, r)[1][0][0] = -1.0


def zero_variance(stack, r):
    # The next EP refresh refuses run r's weight variance of 0.
    stack.variances[r, 0] = 0.0


def infinite_output_variance(stack, r):
    # Run r's output variance is infinite: it skips every example, and its
    # output bias keeps its variance, which the variance check refuses.
    stack.variances[r, -1] = np.inf


FAULT_LABELS = [f"split {r}" for r in range(20)]


def fault_training(monkeypatch, faults, nan_targets=()):
    """A training of 20 runs of 3-6-1, labelled "split <r>", for 2 epochs of
    6 examples, in which fault(stack, i) hits run r, row i of the stack that
    holds it, for each (r, epoch, fault) of faults: after the mean
    perturbation where epoch is 0, else after the variance check of that
    epoch. Each run of nan_targets has a NaN target, which it skips in
    every epoch. Returns the training set, generator states and config."""
    rng = np.random.default_rng(3000)
    train = Dataset(rng.normal(size=(20, 6, 3)), rng.normal(size=(20, 6)))
    for r in nan_targets:
        train.targets[r, 0] = np.nan

    def hit(stack, labels, epoch):
        for r, at, fault in faults:
            if at == epoch and FAULT_LABELS[r] in labels:
                fault(stack, labels.index(FAULT_LABELS[r]))

    def perturb_and_hit(stack, rngs):
        perturb_means(stack, rngs)
        hit(stack, FAULT_LABELS, 0)

    def check_and_hit(stack, labels, epoch):
        check_variances(stack, labels, epoch)
        hit(stack, labels, epoch)

    monkeypatch.setattr(training, "perturb_means", perturb_and_hit)
    monkeypatch.setattr(training, "check_variances", check_and_hit)
    states = [np.random.default_rng(3000 + r).bit_generator.state for r in range(20)]
    return train, states, PbpConfig(hidden_layer_sizes=(6,), epochs=2)


@pytest.mark.parametrize("cpus", [2, 5])
@pytest.mark.parametrize(
    "faults, error",
    [
        ([(13, 0, zero_noise_rate)], (ZeroDivisionError, "split 13: float division by zero")),
        ([(15, 0, negative_variance)],
         (NumericError, "negative pre-activation variance (upstream bug)")),
    ],
    ids=["zero-noise-rate", "negative-variance"],
)
def test_a_failing_group_raises_the_error_of_one_cpu(monkeypatch, faults, error, cpus):
    # The other groups train to the end on their own threads; then the
    # whole stack, untouched, trains again on the calling thread, and
    # raises the error, and names the run, of one CPU.
    train, states, cfg = fault_training(monkeypatch, faults)
    one = training_on_cpus(monkeypatch, 1, train, cfg, [rng_at(s) for s in states], FAULT_LABELS)
    assert one[0] == error
    stacks, dispatches = spy_trainings(monkeypatch)
    grouped = training_on_cpus(monkeypatch, cpus, train, cfg, [rng_at(s) for s in states], FAULT_LABELS)
    assert_same_training(grouped, one)
    assert dispatches == [len(group_sizes(20, cpus))]
    assert sorted(stacks[:-1]) == sorted(group_sizes(20, cpus)) and stacks[-1] == 20


@pytest.mark.parametrize("cpus", [2, 5])
@pytest.mark.parametrize(
    "faults, nan_targets, error, earlier",
    [
        # A later group's skip rate in epoch 1 before an earlier group's
        # likelihood step in epoch 2.
        ([(1, 1, zero_noise_rate)], [17],
         (SkipRateError, "split 17: 1/6 examples skipped in epoch 1"),
         (ZeroDivisionError, "split 1: float division by zero")),
        # In one epoch, a later group's variance check before an earlier
        # group's skip rate.
        ([(17, 0, infinite_output_variance)], [1],
         (NumericError, "split 17: 1 weight variances not finite and positive after epoch 1"),
         (SkipRateError, "split 1: 1/6 examples skipped in epoch 1")),
        # A later group's likelihood step in epoch 1 before an earlier
        # group's EP refresh in epoch 2.
        ([(17, 0, zero_noise_rate), (1, 1, zero_variance)], [],
         (ZeroDivisionError, "split 17: float division by zero"),
         (NumericError, "split 1: zero weight variance: its prior-site cavity is undefined")),
    ],
    ids=["earlier-epoch", "variance-check-before-skip-rate", "step-before-later-refresh"],
)
def test_the_error_of_groups_is_the_first_one_cpu_meets(
    monkeypatch, faults, nan_targets, error, earlier, cpus
):
    # Runs 1 and 17 are in the first and the last run group on 2 and on 5
    # CPUs. The earlier group's fault alone raises `earlier`; with both,
    # the groups raise the error of one CPU, which the serial loop meets
    # first: by epoch, then by phase (likelihood steps, EP refresh,
    # variance check, skip rate).
    def on_cpus(count, faults, nan_targets):
        train, states, cfg = fault_training(monkeypatch, faults, nan_targets)
        return training_on_cpus(monkeypatch, count, train, cfg, [rng_at(s) for s in states], FAULT_LABELS)

    early = [fault for fault in faults if fault[0] == 1]
    assert on_cpus(cpus, early, [r for r in nan_targets if r == 1])[0] == earlier
    one = on_cpus(1, faults, nan_targets)
    assert one[0] == error
    assert_same_training(on_cpus(cpus, faults, nan_targets), one)


def test_one_generator_shared_by_every_run_keeps_the_bits_of_one_cpu(monkeypatch):
    # Eight runs draw from one generator, in train_runs' order: each run's
    # mean perturbation, then per epoch one permutation per run, all before
    # the first epoch; the run groups draw none.
    datasets, _ = split_runs(8)
    cfg = PbpConfig(hidden_layer_sizes=(4,), epochs=3)
    trained = [
        training_on_cpus(monkeypatch, cpus, Dataset.of(datasets), cfg, [np.random.default_rng(29)] * 8)
        for cpus in (1, 2, 5)
    ]
    for got in trained[1:]:
        assert_same_training(got, trained[0])


@pytest.mark.parametrize("variance", [0.0, 1e-40, 0.5])
def test_a_signed_zero_pre_activation_rectifies_as_the_reference(variance):
    # np.matmul gives +0.0 where every product is a signed zero, so no step
    # forms a pre-activation mean of -0.0 (see force_unit). The rectifier
    # that a step and a rows pass share gives it, and +0.0, the bits of the
    # numpy rectifier of reference_forward, intermediates included.
    for mean in (-0.0, 0.0):
        a = MomentVector(np.array([[mean, 1.0]]), np.array([[variance, 0.3]]))
        got, rectifier = relu_moments(a)
        want, aux = reference_update.relu_moments(a)
        assert _bits(got.mean) == _bits(want.mean), mean
        assert _bits(got.variance) == _bits(want.variance), mean
        for name in ("alpha", "ratio", "vprime", "cdf", "cdf_neg", "pdf", "sqrt_v", "deterministic"):
            assert _bits(getattr(rectifier, name)) == _bits(getattr(aux, name)), (mean, name)


def test_phase_counters_time_every_call_and_move_no_bit():
    # Two steps on each of two stacks of the same nets; one counts the
    # nanoseconds of its second step's calls: forward 0, forward 1, forward
    # out, backward, refine.
    nets, rng = step_nets([3, 5, 4, 1], 3, 46)
    xs, ys = rng.normal(size=(2, 3, 3)), rng.normal(size=(2, 3))
    plain, counted = (stack_of(nets) for _ in range(2))
    for stack in (plain, counted):
        one_step(stack, xs[0], ys[0])
    phases = counted.workspace.count_phases()
    for stack in (plain, counted):
        one_step(stack, xs[1], ys[1])
    assert phases.shape == (5,) and (phases > 0).all()
    for name in ("means", "variances", "gamma"):
        assert _bits(getattr(counted, name)) == _bits(getattr(plain, name)), name


@pytest.mark.parametrize(
    "xs_shape, ys_shape",
    [((4, 3, 3), (4, 2)), ((4, 2, 3), (4, 2)), ((4, 3, 2), (4, 3)), ((3, 3), (3,))],
    ids=["targets-per-run", "runs", "features", "no-examples-axis"],
)
def test_an_epoch_of_the_wrong_shape_is_refused(xs_shape, ys_shape):
    nets, _ = step_nets([3, 4, 1], 3, 48)
    stack = stack_of(nets)
    with pytest.raises(ValueError, match="expected"):
        incorporate_likelihood_factors(stack, np.zeros(xs_shape), np.zeros(ys_shape))
    assert stack.workspace is None


def test_stack_layers_and_runs_are_views_of_one_buffer():
    nets, _ = step_nets([3, 4, 2, 1], 3, 45)
    stack = stack_of(nets)
    assert stack.means.shape == stack.variances.shape == (3, 4 * 4 + 2 * 5 + 3)
    for r, net in enumerate(nets):
        flat = np.concatenate([means.ravel() for means in weights(net)[0]])
        assert _bits(stack.means[r]) == _bits(flat)
    mean_views, variance_views = (
        layer_views(flat, stack.layer_sizes) for flat in (stack.means, stack.variances)
    )
    for layer_means, layer_variances in zip(mean_views, variance_views):
        assert np.shares_memory(layer_means, stack.means)
        assert np.shares_memory(layer_variances, stack.variances)
    run_means, run_variances = weights(stack, 1)
    run_means[1][0, 2] = 7.0
    assert stack.means[1, 16 + 2] == 7.0
    variance_views[0][2, 3, 1] = 5.0
    assert stack.variances[2, 3 * 4 + 1] == 5.0
    assert run_variances[0][3, 1] != 5.0
    means, variances = stack.means, stack.variances
    one_step(stack, np.ones((3, 3)), np.zeros(3))
    assert stack.means is means and stack.variances is variances
    assert np.shares_memory(run_means[0], stack.means)
    assert run_means[1][0, 2] == stack.means[1, 16 + 2] != 7.0


@pytest.mark.parametrize("fails", [False, True], ids=["trains", "fails"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_no_workspace_outlives_its_train_runs_call(monkeypatch, cpus, fails):
    # Every stack whose epochs a train_runs call trains, each run group's or
    # the whole stack's, goes with its workspace when the call returns or
    # raises, without waiting for the cycle collector. Where run 7 fails in
    # epoch 1, on two CPUs its group stops there, the other trains to the
    # end and the whole stack trains again, to the error.
    seen = []
    real = training.incorporate_likelihood_factors

    def spy(stack, x, y):
        outcome = real(stack, x, y)
        seen.append((weakref.ref(stack), weakref.ref(stack.workspace)))
        return outcome

    monkeypatch.setattr(training, "incorporate_likelihood_factors", spy)
    monkeypatch.setattr(forward, "usable_cpus", lambda: cpus)
    datasets, states = split_runs(8)
    if fails:
        targets = datasets[7].targets.copy()
        targets[0] = np.nan
        datasets[7] = Dataset(datasets[7].features, targets)
    cfg = PbpConfig(hidden_layer_sizes=(4,), epochs=2)
    rngs = [rng_at(s) for s in states]
    if fails:
        with pytest.raises(SkipRateError, match="^run 7: 1/36 examples skipped in epoch 1$"):
            train_runs(Dataset.of(datasets), cfg, rngs)
    else:
        results = each_run(train_runs(Dataset.of(datasets), cfg, rngs))
        assert [report.epochs_run for _, _, report in results] == [2] * 8
    # One call per epoch each stack trained; each stack kept one workspace
    # (weakref.ref gives one ref per live object).
    calls, stacks = {
        (1, False): (2, 1), (2, False): (4, 2), (1, True): (1, 1), (2, True): (4, 3)
    }[cpus, fails]
    assert len(seen) == calls
    assert len({id(stack) for stack, _ in seen}) == len({id(step) for _, step in seen}) == stacks
    assert all(ref() is None for pair in seen for ref in pair)
    gc.collect()
    assert all(ref() is None for pair in seen for ref in pair)
