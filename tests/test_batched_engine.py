"""The lockstep engine against the per-example training loop.

`reference_train` is the one-run, one-example-at-a-time schedule that
`train_runs` replaces, updating through the frozen per-network step of
`reference_update` and the per-weight prior loops of `reference_prior`. Every run of a batch must match it bit for bit: the batch
changes how the work is dispatched and where it is stored, never the
arithmetic of a run.
"""

import copy
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
    each_run, epoch_by_phases, one_step, random_net, relu_moments, step_by_phases,
    toy_cubic_dataset, train_runs_tracing_rmse,
)
from pbp.data import Dataset, normalize, split
from reference_forward import forward_output_moments_batch
from reference_update import GradientStore, MomentVector, incorporate_likelihood_factor
from pbp.posterior import (
    HYPERPRIOR, GammaDist, NumericError, PbpConfig, PosteriorStack, new_uniform,
)
from pbp.training import SkipRateError, TrainReport, train, train_runs
from pbp.updates import incorporate_likelihood_factors
from reference_prior import Sites, ep_refresh_prior, incorporate_all_prior_factors


def reference_train(dataset, config, rng):
    """One run, one example at a time: the schedule of `train`, unbatched,
    with the training RMSE after each epoch as train_runs_tracing_rmse takes
    it."""
    n = len(dataset.targets)
    layer_sizes = [dataset.features.shape[1], *config.hidden_layer_sizes, 1]
    net = new_uniform(layer_sizes)
    net.gamma = GammaDist(*HYPERPRIOR)
    net.lam = GammaDist(*HYPERPRIOR)

    sites = Sites.zeros(net)
    incorporate_all_prior_factors(net, sites)
    # The mean perturbation as a lone network draws it: each layer's
    # (rows, cols) means in turn.
    for layer in net.layers:
        layer.means[...] = rng.standard_normal(layer.means.shape) * math.sqrt(1.0 / (layer.rows + 1))

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
    for layer, ref_layer in zip(net.layers, ref_net.layers, strict=True):
        assert _bits(layer.means) == _bits(ref_layer.means)
        assert _bits(layer.variances) == _bits(ref_layer.variances)
    assert net.gamma == ref_net.gamma
    assert net.lam == ref_net.lam
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
    stack = PosteriorStack.of([copy.deepcopy(net) for net in nets])
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
        ref = copy.deepcopy(net)
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
    relu = stack.workspace.rectifiers
    assert all(aux.n_deterministic == 0 and aux.n_series == 0 for aux in relu)
    assert outcome.undo_count.tolist() == [0, 0, 0]


def test_step_with_a_deterministic_unit_in_one_run_matches_the_reference():
    # Run 0's first hidden unit has weight variances of 1e-40, so its
    # pre-activation variance falls below the 1e-30 exact-limit cutoff.
    nets, rng = step_nets([3, 5, 4, 1], 3, 41)
    nets[0].layers[0].variances[0] = 1e-40
    stack, _ = assert_step_matches_reference(nets, rng.normal(size=(3, 3)), rng.normal(size=3))
    det = stack.workspace.rectifiers[0].deterministic
    assert det[:, 0, 0].tolist() == [True, False, False]
    assert not det[..., 1:].any()


def test_step_with_a_far_tail_unit_in_one_run_matches_the_reference():
    # Run 2's first hidden unit has weight means of -40 on positive inputs:
    # alpha is about -150, in the asymptotic-series branch.
    nets, rng = step_nets([3, 5, 4, 1], 3, 42)
    nets[2].layers[0].means[0] = -40.0
    xs = rng.uniform(0.5, 1.5, size=(3, 3))
    stack, _ = assert_step_matches_reference(nets, xs, rng.normal(size=3))
    series = stack.workspace.rectifiers[0].series
    assert series[:, 0, 0].tolist() == [False, False, True]
    assert not series[..., 1:].any()


def test_step_with_an_undone_weight_in_one_run_matches_the_reference(monkeypatch):
    nets, rng = step_nets([3, 5, 4, 1], 3, 43)
    xs, ys = rng.normal(size=(3, 3)), rng.normal(size=3)
    refs = [copy.deepcopy(net) for net in nets]
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
    stack = PosteriorStack.of([copy.deepcopy(net) for net in nets])
    outcome = step_by_phases(stack, xs, ys)

    assert outcome.undo_count.tolist() == [want.undo_count for want in wants] == [0, 1, 0]
    for r, ref in enumerate(refs):
        for layer, ref_layer in zip(stack.run(r).layers, ref.layers, strict=True):
            assert _bits(layer.means) == _bits(ref_layer.means), r
            assert _bits(layer.variances) == _bits(ref_layer.variances), r
        assert stack.run(r).gamma == ref.gamma
    assert stack.layers[0].means[1, 2, 3] == nets[1].layers[0].means[2, 3]


def test_step_with_a_negative_pre_activation_variance_raises_before_any_write():
    # Negative weight variances give run 1's first hidden unit a negative
    # pre-activation variance, which the step's forward call refuses.
    nets, rng = step_nets([3, 5, 4, 1], 3, 47)
    nets[1].layers[0].variances[0] = -5.0
    stack = PosteriorStack.of(nets)
    before = [_bits(a) for a in (stack.means, stack.variances, stack.gamma)]
    with pytest.raises(NumericError, match="^negative pre-activation variance"):
        one_step(stack, rng.normal(size=(3, 3)), rng.normal(size=3))
    assert [_bits(a) for a in (stack.means, stack.variances, stack.gamma)] == before


def test_step_with_a_nan_target_in_one_run_of_three_matches_the_reference():
    nets, rng = step_nets([3, 5, 4, 1], 3, 44)
    ys = np.array([0.3, np.nan, -0.2])
    stack, outcome = assert_step_matches_reference(nets, rng.normal(size=(3, 3)), ys)
    assert outcome.skipped.tolist() == [False, True, False]
    assert _bits(stack.means[1]) == _bits(PosteriorStack.of([nets[1]]).means[0])


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
        net.gamma = GammaDist(float(rng.uniform(1.5, 20.0)), float(rng.uniform(0.1, 20.0)))
        l = int(rng.integers(len(hidden)))
        unit, layer = int(rng.integers(hidden[l])), net.layers[l]
        kind = rng.random()
        if kind < 0.15:
            # Zero variance: deterministic, with the input layer's mean x . m,
            # and a mean of 0 in a deeper layer, whose inputs are random.
            layer.variances[unit] = 0.0
            if l > 0:
                layer.means[unit] = 0.0
        elif kind < 0.25:
            layer.means[unit] = rng.normal(0.0, 1e-20, layer.cols)
            layer.variances[unit] = 1e-40
        elif kind < 0.35:
            # alpha <= -40 (sum |x| + 1) / sqrt(sum x^2 v) <= -40, v <= 1.
            first = net.layers[0]
            first.means[unit % hidden[0], :-1] = -40.0 * np.sign(xs[r])
            first.means[unit % hidden[0], -1] = -40.0
        elif kind < 0.45:
            layer.variances[unit] *= 1e4
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
        layer = net.layers[hidden_layer]
        layer.means[unit] = 0.0
        layer.means[unit, -1] = mean * math.sqrt(layer.cols)
        layer.variances[unit] = 0.0
        layer.variances[unit, -1] = variance * layer.cols


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
                first = nets[0].layers[0]
                index = (..., int(rng.integers(first.rows)), int(rng.integers(first.cols)))
                for module in (conftest, reference_update):
                    m.setattr(module, "backward_gradients", sabotage(module.backward_gradients, index))
                step = step_by_phases
            if case % 7 == 6:
                layers = len(nets[0].layers)
                l = int(rng.integers(layers - 1))
                unit = int(rng.integers(nets[0].layers[l].rows))
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
            layer = net.layers[int(rng.integers(len(net.layers)))]
            layer.variances[int(rng.integers(layer.rows)), int(rng.integers(layer.cols))] = 1e155
    return nets, xs, ys


def test_the_per_example_driver_matches_step_epoch_on_fuzzed_stacks():
    # step_epoch folds an epoch into a stack in one call; the tests' driver
    # (epoch_by_phases) runs the same steps one phase at a time, through the
    # seams that other tests patch. Both must leave the same bits.
    rng = np.random.default_rng(1900)
    seen = {"deterministic": 0, "series": 0, "skipped": 0, "undone": 0}
    for case in range(200):
        nets, xs, ys = fuzz_epoch_case(rng)
        folded, driven = (PosteriorStack.of([copy.deepcopy(net) for net in nets]) for _ in range(2))
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
    stack = PosteriorStack.of([copy.deepcopy(net) for net in nets])
    monkeypatch.setattr(forward, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(forward, "GROUP_WORK", 0)
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


@pytest.mark.parametrize("runs", [8, 9, 20])
def test_an_epoch_in_run_groups_keeps_the_bits_of_one_cpu(monkeypatch, runs):
    # On two CPUs the stack trains as two groups of runs, each on its own
    # thread; the epochs of fuzz_epoch_case leave every bit and count as on
    # one CPU, deterministic and far-tail units, skips and undos included.
    rng = np.random.default_rng(2800 + runs)
    seen = {"deterministic": 0, "series": 0, "skipped": 0, "undone": 0}
    for case in range(40):
        nets, xs, ys = fuzz_epoch_case(rng, runs)
        one = epoch_on_cpus(monkeypatch, 1, nets, xs, ys)
        two = epoch_on_cpus(monkeypatch, 2, nets, xs, ys)
        assert_same_epoch(two, one)
        stack, (skipped, undone, _) = two
        assert [part for part, _ in stack.groups] == [slice(0, runs // 2), slice(runs // 2, runs)]
        assert stack.workspace is None, case  # no rerun on one thread
        relu = [aux for _, step in stack.groups for aux in step.rectifiers]
        seen["deterministic"] += any(aux.n_deterministic for aux in relu)
        seen["series"] += any(aux.n_series for aux in relu)
        seen["skipped"] += any(skipped)
        seen["undone"] += any(undone)
    assert min(seen.values()) >= 5, seen


def test_run_groups_on_more_threads_than_cpus_keep_the_bits(monkeypatch):
    # Five groups of four runs on five threads, switching every microsecond:
    # each writes only its own rows, counts and Gammas of the stack.
    nets, rng = step_nets([4, 8, 1], 20, 2950)
    xs, ys = rng.normal(size=(30, 20, 4)), rng.normal(size=(30, 20))
    one = epoch_on_cpus(monkeypatch, 1, nets, xs, ys)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        five = epoch_on_cpus(monkeypatch, 5, nets, xs, ys)
    finally:
        sys.setswitchinterval(interval)
    assert_same_epoch(five, one)
    assert [part.stop - part.start for part, _ in five[0].groups] == [4] * 5


def test_an_epoch_of_fewer_weight_updates_than_group_work_runs_as_one_group(monkeypatch):
    # 20 runs of 31 weights on two CPUs: 422 examples are one group, on the
    # calling thread, and 423 (262,260 weight updates) two.
    monkeypatch.setattr(forward, "usable_cpus", lambda: 2)
    nets, rng = step_nets([3, 6, 1], 20, 2990)
    assert forward.GROUP_WORK == 1 << 18
    for n, grouped in [(422, False), (423, True)]:
        stack = PosteriorStack.of([copy.deepcopy(net) for net in nets])
        incorporate_likelihood_factors(stack, rng.normal(size=(n, 20, 3)), rng.normal(size=(n, 20)))
        assert (stack.groups is not None, stack.workspace is None) == (grouped, grouped), n


def shape_one_case(runs, first, last):
    """A stack of runs and an epoch of 3 in which run first + 1 has a noise
    shape of exactly 1.0 and the runs first..last NaN targets: these runs
    skip every example, and every other run keeps every example."""
    nets, rng = step_nets([2, 5, 1], runs, 2900)
    for net in nets:
        net.gamma = GammaDist(6.0, 6.0)
    nets[first + 1].gamma = GammaDist(1.0, 6.0)
    xs, ys = rng.normal(size=(3, runs, 2)), rng.normal(size=(3, runs))
    ys[:, first:last + 1] = np.nan
    return nets, xs, ys


@pytest.mark.parametrize("cpus", [1, 2])
def test_every_run_of_a_stack_is_its_lone_run(monkeypatch, cpus):
    # Each run of a stack, in run groups or not, leaves the bits and counts
    # of an epoch of that run alone: on fuzzed stacks of 8 and 20 runs, and
    # on a run with a noise shape of exactly 1.0, which skips every example
    # in a stack as alone, in a group that skips too or one that keeps them
    # (run 3 of 8, beside runs 0 and 1).
    rng = np.random.default_rng(2910)
    cases = [fuzz_epoch_case(rng, runs) for runs in (8, 20) for _ in range(6)]
    cases += [shape_one_case(8, 0, 3), shape_one_case(20, 10, 19), shape_one_case(8, 2, 2)]
    for case, (nets, xs, ys) in enumerate(cases):
        stack, counts = epoch_on_cpus(monkeypatch, cpus, nets, xs, ys)
        assert isinstance(counts, list), (case, counts)
        assert (stack.groups is not None, stack.workspace is None) == (cpus > 1, cpus > 1), case
        for r, net in enumerate(nets):
            alone, alone_counts = epoch_on_cpus(monkeypatch, 1, [net], xs[:, r:r + 1], ys[:, r:r + 1])
            assert [c[r] for c in counts] == [c[0] for c in alone_counts], (case, r)
            for got, want in [(stack.means[r], alone.means[0]),
                              (stack.variances[r], alone.variances[0]),
                              (stack.gamma[:, r], alone.gamma[:, 0])]:
                assert _bits(got) == _bits(want), (case, r)


def test_a_noise_shape_of_one_skipped_by_every_run_raises_nothing(monkeypatch):
    # Where every run skips every example, no run moves, on one CPU or two;
    # the run at a noise shape of 1.0 ends the epoch on it.
    nets, xs, ys = shape_one_case(8, 0, 3)
    ys[...] = np.nan
    one = epoch_on_cpus(monkeypatch, 1, nets, xs, ys)
    assert one[1] == [[3] * 8, [0] * 8, [0] * 8]
    assert_same_epoch(epoch_on_cpus(monkeypatch, 2, nets, xs, ys), one)


def zero_rate_at_the_third_example(nets, xs, ys):
    # Run 13 skips its first two examples, and its Gamma match divides by its
    # rate of 0 at the third.
    nets[13].gamma = GammaDist(6.0, 0.0)
    ys[:2, 13] = np.nan


def negative_variance(nets, xs, ys):
    # Run 15's first hidden unit has a negative pre-activation variance.
    nets[15].layers[0].variances[0] = -1.0


@pytest.mark.parametrize(
    "fault, error",
    [
        (zero_rate_at_the_third_example, (ZeroDivisionError, "float division by zero", 13)),
        (negative_variance,
         (NumericError, "negative pre-activation variance (upstream bug)", None)),
    ],
)
def test_a_failing_group_leaves_the_stack_as_one_cpu_does(monkeypatch, fault, error):
    # The other group trains to the end on its own thread; the rerun on one
    # thread puts the stack back first, and leaves it, the steps before the
    # error done, with the error and the run it names of one CPU.
    nets, rng = step_nets([3, 6, 1], 20, 3000)
    xs, ys = rng.normal(size=(5, 20, 3)), rng.normal(size=(5, 20))
    fault(nets, xs, ys)
    one = epoch_on_cpus(monkeypatch, 1, nets, xs, ys)
    assert one[1] == error
    two = epoch_on_cpus(monkeypatch, 2, nets, xs, ys)
    assert_same_epoch(two, one)
    assert two[0].groups is not None and two[0].workspace is not None


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
    plain, counted = (PosteriorStack.of([copy.deepcopy(net) for net in nets]) for _ in range(2))
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
    stack = PosteriorStack.of(nets)
    with pytest.raises(ValueError, match="expected"):
        incorporate_likelihood_factors(stack, np.zeros(xs_shape), np.zeros(ys_shape))
    assert stack.workspace is None


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
    one_step(stack, np.ones((3, 3)), np.zeros(3))
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
    results = each_run(train_runs(Dataset.of(datasets), cfg, [rng_at(s) for s in states]))
    # One call per epoch, one workspace served every step, and it went with
    # its stack, without waiting for the cycle collector.
    assert len(refs) == 2 and len(ids) == 1
    assert refs[0]() is None
    gc.collect()
    assert refs[0]() is None
    assert [report.epochs_run for _, _, report in results] == [2, 2]
