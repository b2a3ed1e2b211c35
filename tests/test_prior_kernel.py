"""The prior / EP / Gamma kernel of `pbp.updates` against the per-weight loops
it replaced (`reference_prior`).

The kernel must match the reference bit for bit: weight means and variances,
all four prior-site arrays, both Gammas and the RefreshReport, on trained
posteriors and on hand-built cases that reach every branch, for a lone run
and for each run of a stack whose runs take different branches. Deliberate
differences, each pinned below:

* where the reference `likelihood_log_z_triple` raises OverflowError on a
  squared residual that overflows, the kernel skips the example;
* the first incorporation is an EP sweep over empty sites from the uniform
  start, and raises ValueError on any other state;
* where the reference raises ZeroDivisionError on a zero weight variance or
  a flat site whose prior variance underflows to 0, the kernel raises
  NumericError; and whatever the kernel raises, it has written nothing.
"""

import copy
import math
import struct

import numpy as np
import pytest

import pbp.kernel as kernel
import pbp.training as training
import pbp.updates as updates
import reference_prior as ref
from conftest import (
    epoch_by_phases, incorporate_one_run, likelihood_step, refresh_one_run, toy_cubic_dataset,
)
from pbp.data import normalize, split
from pbp.kernel import LOG_2PI
from pbp.posterior import GammaDist, NumericError, PbpConfig, PosteriorStack, new_uniform
from pbp.training import train, train_runs
from pbp.updates import RefreshReport
from reference_prior import Sites


def _bits(x) -> bytes:
    if isinstance(x, float):
        return struct.pack("<d", x)
    return np.asarray(x, dtype=float).tobytes()


def state(net, sites):
    """Everything a prior loop may change, as bytes; sites is a Sites or its
    (4, W) array."""
    arrays = [layer.means for layer in net.layers] + [layer.variances for layer in net.layers]
    arrays.append(sites.flat if isinstance(sites, Sites) else sites)
    gammas = [net.gamma.shape, net.gamma.rate, net.lam.shape, net.lam.rate]
    return [_bits(a) for a in arrays] + [_bits(float(g)) for g in gammas]


def same_report(got: RefreshReport, want: RefreshReport) -> bool:
    return (
        got.sites_visited == want.sites_visited
        and got.sites_skipped == want.sites_skipped
        and _bits(got.max_abs_change) == _bits(want.max_abs_change)
        and [(n, _bits(c)) for n, c in got.runs] == [(n, _bits(c)) for n, c in want.runs]
    )


def assert_same(fn_kernel, fn_reference, net, sites):
    """Run the kernel as fn(net, sites) and the reference on a copy; their
    outcomes (result, or the type of what they raised) and the states they
    leave must be equal. Returns the reference's outcome."""
    ref_net, ref_sites = copy.deepcopy(net), copy.deepcopy(sites)
    outcomes = []
    for fn, n, s in ((fn_kernel, net, sites), (fn_reference, ref_net, ref_sites)):
        try:
            outcomes.append(fn(n, s))
        except Exception as exc:  # what is raised is part of the behaviour
            outcomes.append(type(exc))
    got, want = outcomes
    if isinstance(want, RefreshReport):
        assert same_report(got, want), (got, want)
    else:
        assert got == want
    assert state(net, sites) == state(ref_net, ref_sites)
    return want


def assert_refused(kernel, error, net, sites):
    """The kernel raises error and leaves net and sites as they were."""
    before = state(net, sites)
    with pytest.raises(error):
        kernel(net, sites)
    assert state(net, sites) == before


def trained(hidden, seed=3, n=24, epochs=2):
    ds = toy_cubic_dataset(n, seed)
    cfg = PbpConfig(hidden_layer_sizes=hidden, epochs=epochs)
    net, sites, _ = train(normalize(ds)[0], cfg, np.random.default_rng(seed))
    return net, Sites(sites, net.layer_sizes)


def uniform(layer_sizes, lam):
    net = new_uniform(layer_sizes)
    net.gamma = GammaDist(6.0, 6.0)
    net.lam = GammaDist(*lam)
    return net, Sites.zeros(net)


HIDDEN = [(4,), (3, 3), (50,)]


@pytest.mark.parametrize("hidden", HIDDEN)
def test_first_incorporation_from_the_uniform_state(hidden):
    net, sites = uniform([2, *hidden, 1], (6.0, 6.0))
    assert_same(incorporate_one_run, ref.incorporate_all_prior_factors, net, sites)


@pytest.mark.parametrize("lam", [(6.0, 6.0), (1.0 + 2.0**-40, 3.0), (40.0, 0.01), (1e20, 6.0)])
@pytest.mark.parametrize("layer_sizes", [[6, 10, 1], [13, 50, 1], [11, 50, 50, 1]])
def test_first_incorporation_closed_form_on_the_benchmark_shapes(layer_sizes, lam):
    net, sites = uniform(layer_sizes, lam)
    assert_same(incorporate_one_run, ref.incorporate_all_prior_factors, net, sites)


@pytest.mark.parametrize("hidden", HIDDEN)
def test_incorporation_on_a_trained_posterior(hidden):
    # The prior factors go in once, into the uniform state; finite variances
    # are refused, and so is one finite weight among flat ones.
    net, _ = trained(hidden)
    assert_refused(incorporate_one_run, ValueError, net, Sites.zeros(net))
    flat, sites = uniform(net.layer_sizes, (6.0, 6.0))
    flat.layers[-1].variances[0, 0] = 1.0
    assert_refused(incorporate_one_run, ValueError, flat, sites)


@pytest.mark.parametrize("hidden", HIDDEN)
def test_ep_refresh_on_trained_posteriors(hidden):
    net, sites = trained(hidden)
    for _ in range(3):  # each sweep starts from the sites the last one stored
        report = assert_same(refresh_one_run, ref.ep_refresh_prior, net, sites)
        assert report.sites_visited == sites.flat.shape[-1]


def one_layer(weights):
    """A 1-row layer holding one hand-built site per weight:
    (mean, variance, site precision, site precision-mean, site shape, site rate)."""
    net = new_uniform([len(weights) - 1, 1])
    net.gamma = net.lam = GammaDist(6.0, 6.0)
    sites = Sites.zeros(net)
    arrays = [net.layers[0].means, net.layers[0].variances, *(
        getattr(sites, name)[0] for name in ("precision", "precision_mean", "lam_shape", "lam_rate")
    )]
    for k, values in enumerate(weights):
        for arr, value in zip(arrays, values):
            arr[0, k] = value
    return net, sites


EVERY_BRANCH = [
    (0.2, 1.0, 6.0, 0.0, 0.0, 0.0),      # negative cavity precision: skipped
    (0.3, 1.2, 1.0 / 1.2, 0.0, 0.0, 0.0),  # flat cavity
    (0.3, 1.2, math.nextafter(1.0 / 1.2, 0.0), 0.0, 0.0, 0.0),  # nearly flat: cancels, skipped
    # Cavity variance 1/p_cav overflows to inf: skipped. numpy warns on the
    # overflow where Python floats do not, and the tests fail on a warning.
    (0.1, 1e308, math.nextafter(1.0 / 1e308, 0.0), 0.0, 0.0, 0.0),
    (0.2, 0.5, 0.3, 0.1, 5.5, 0.0),      # Gamma cavity shape 0.5: gamma_ok false
    # Refined variance not finite: skipped. The squared mean (1e200)**2 would
    # raise OverflowError, so the Gamma branch must not evaluate it here.
    (1e200, 1.0, 0.5, 0.0, 0.0, 0.0),
    (1000.0, 1.0, 0.0, 0.0, 0.0, 0.0),   # OverflowError in the Z ratios
    (0.5, 0.9, 0.3, 0.2, 0.0, 6.0),      # Gamma cavity rate exactly 0: gamma_ok false
    (0.5, 0.9, 0.3, 0.2, 5.0, 0.0),      # Gamma cavity shape exactly 1: gamma_ok false
    (0.4, 0.8, 0.2, 0.1, -1e20, -1e20),  # Gamma cavity (1e20, 1e20): refine rejected
]


def test_ep_refresh_reaches_every_branch():
    net, sites = one_layer(EVERY_BRANCH)
    report = assert_same(refresh_one_run, ref.ep_refresh_prior, net, sites)
    assert report.sites_skipped == 4
    # The rejected refine leaves the Gamma at its cavity, as the reference does.
    assert net.lam.shape == 1e20
    # A second sweep starts from the sites and Gamma the first one stored.
    assert_same(refresh_one_run, ref.ep_refresh_prior, net, sites)


@pytest.mark.parametrize("shape", [0.5, 1.0 - 2.0**-52])
def test_flat_site_under_a_prior_shape_at_or_below_one_is_skipped(shape):
    # A flat cavity (a weight on an input column that normalizes to 0, which
    # the likelihood never moves) under a running prior shape of 1 or below,
    # with no Gamma cavity to fall back on, has no prior variance b / (a - 1):
    # the site is skipped and counted, and the weight keeps its moments.
    net, sites = one_layer([
        (0.0, 0.8, 1.0 / 0.8, 0.0, 0.0, 0.0),
        (0.2, 1.5, 1.0 / 1.5, 0.1, 0.0, 0.0),
        (0.0, 0.5, 0.0, 0.0, 0.0, 0.0),
    ])
    net.lam = GammaDist(shape, 6.0)
    report = assert_same(refresh_one_run, ref.ep_refresh_prior, net, sites)
    assert report.sites_skipped == 2
    assert net.layers[0].variances[0, :2].tolist() == [0.8, 1.5]


@pytest.mark.parametrize(
    "lam, weights",
    [
        pytest.param((6.0, 6.0), [(0.0, math.inf), (0.3, 1.0), (1000.0, 1.0), (-0.7, 0.2)],
                     id="flat-finite-overflow"),
        pytest.param((1e20, 6.0), [(0.3, 1.0), (0.0, math.inf)], id="refine-rejected"),
        pytest.param((6.0, 6.0), [(0.3, 1.0), (1e200, 1.0), (0.1, 1.0)],
                     id="invalid-variance-raises"),
        pytest.param((0.5, 6.0), [(0.3, 1.0), (0.2, 0.5)], id="shape-below-one-raises"),
    ],
)
def test_first_incorporation_reaches_every_branch(lam, weights):
    # The weights the per-weight reference refined from a finite variance are
    # refused; from the uniform state the sweep's flat limit matches the
    # reference under the same prior Gamma. (Under a shape below 1, which
    # PbpConfig rejects, the prior variance is negative, and the flat limit's
    # mean prior_var * 0.0 is -0.0 where the reference writes 0.0.)
    net, sites = one_layer([(m, v, 0.0, 0.0, 0.0, 0.0) for m, v in weights])
    net.lam = GammaDist(*lam)
    assert_refused(incorporate_one_run, ValueError, net, sites)
    if lam[0] > 1.0:
        net.layers[0].variances[...] = math.inf
        assert_same(incorporate_one_run, ref.incorporate_all_prior_factors, net, sites)


def test_ep_refresh_with_an_inflated_site_on_a_trained_posterior():
    net, sites = trained((4,))
    sites.precision[0][0, 0] = 1.0 / net.layers[0].variances[0, 0] + 5.0
    sites.lam_shape[1][0, 2] = net.lam.shape  # Gamma cavity shape 0
    report = assert_same(refresh_one_run, ref.ep_refresh_prior, net, sites)
    assert report.sites_skipped == 1


# ------------------------------------------------------- stacks of runs


def three_run_stack():
    """Three runs of one 1-4-1 architecture (13 weights) that take different
    branches: the hand-built sites of EVERY_BRANCH over the first ten weights
    of a trained run, the trained run itself, and an all-flat run (the state
    right after the first incorporation, means perturbed)."""
    net, sites = trained((4,))
    flat, flat_sites = uniform(net.layer_sizes, (6.0, 6.0))
    ref.incorporate_all_prior_factors(flat, flat_sites)
    for layer in flat.layers:
        layer.means[...] = np.random.default_rng(1).normal(0.0, 0.5, layer.means.shape)
    stack = PosteriorStack.of([net, net, flat])
    stack_sites = np.stack([sites.flat, sites.flat, flat_sites.flat], axis=1)
    hand = np.array(EVERY_BRANCH).T
    stack.means[0, :10], stack.variances[0, :10] = hand[:2]
    stack_sites[:, 0, :10] = hand[2:]
    stack.lam[:, 0] = 6.0
    return stack, stack_sites


def test_three_run_stack_matches_each_run_alone():
    stack, sites = three_run_stack()
    runs = [
        (copy.deepcopy(stack.run(r)), Sites(sites[:, r].copy(), stack.layer_sizes))
        for r in range(3)
    ]
    for sweep in range(2):
        report = updates.ep_refresh_prior(stack, sites)
        want = [ref.ep_refresh_prior(net, s) for net, s in runs]
        assert report.sites_visited == 3 * 13
        assert report.sites_skipped == sum(w.sites_skipped for w in want)
        assert _bits(report.max_abs_change) == _bits(max(w.max_abs_change for w in want))
        for r, ((net, s), w) in enumerate(zip(runs, want)):
            alone = RefreshReport(13, *report.runs[r], [report.runs[r]])
            assert same_report(alone, w), (sweep, r)
            assert state(stack.run(r), sites[:, r]) == state(net, s), (sweep, r)
    # The runs did take different branches.
    assert [w.sites_skipped for w in want] == [4, 0, 0]


# ---------------------------- where numpy and Python floats part ways


def test_squared_cavity_mean_is_a_python_power():
    # (m - 0.0) ** 2 calls libm pow, which differs from m * m in the last bit
    # for this m, and the difference reaches the refined Gamma.
    m = 0.7248364021613508
    assert m**2 != m * m
    net, sites = one_layer([(m, 1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)])
    assert_same(refresh_one_run, ref.ep_refresh_prior, net, sites)

    def log_z(k):
        var = 6.0 / (6.0 + k - 1.0) + 1.0
        return -0.5 * (LOG_2PI + math.log(var) + (m * m) / var)

    with_product = ref._gamma_moments(6.0, 6.0, log_z(0.0), log_z(1.0), log_z(2.0))
    assert sites.lam_shape[0][0, 0] != with_product[0] - 6.0


def test_max_change_skips_nan_as_python_max_does():
    # Python's max(running, NaN) keeps the running value; np.max would return
    # NaN. A flat site whose weight mean is inf moves by inf - inf = NaN, and
    # the kernel compares a skipped weight of NaN mean and variance with itself.
    net, sites = one_layer([
        (0.3, 1.0, 0.0, 0.0, 0.0, 0.0),
        (math.inf, 1.2, 1.0 / 1.2, 0.0, 0.0, 0.0),
        (math.nan, math.nan, 0.0, 0.0, 0.0, 0.0),
        (0.1, 1.0, 0.0, 0.0, 0.0, 0.0),
    ])
    report = assert_same(refresh_one_run, ref.ep_refresh_prior, net, sites)
    assert report.sites_skipped == 1
    assert 0.0 < report.max_abs_change < math.inf


def test_zero_variance_raises_numeric_error_before_any_write():
    # The reference raises ZeroDivisionError on 1.0 / v, after the sites
    # before it; the kernel checks every variance first.
    net, sites = one_layer([(0.3, 1.0, 0.0, 0.0, 0.0, 0.0), (0.2, 0.0, 0.0, 0.0, 0.0, 0.0)])
    with pytest.raises(ZeroDivisionError):
        ref.ep_refresh_prior(copy.deepcopy(net), copy.deepcopy(sites))
    assert_refused(refresh_one_run, NumericError, net, sites)


def test_flat_site_with_a_zero_prior_variance_raises_numeric_error():
    # b/(a-1) underflows to 0: the reference raises ZeroDivisionError on the
    # new site precision 1/0.
    net, sites = one_layer([(0.3, 1.0, 0.0, 0.0, 0.0, 0.0), (0.3, 1.2, 1.0 / 1.2, 0.0, 0.0, 0.0)])
    net.lam = GammaDist(10.0, 5e-324)
    with pytest.raises(ZeroDivisionError):
        ref.ep_refresh_prior(copy.deepcopy(net), copy.deepcopy(sites))
    assert_refused(refresh_one_run, NumericError, net, sites)


# ------------------------------------------------ likelihood and Gamma


LIKELIHOOD_CASES = [
    (0.3, -0.1, 0.4, (6.0, 6.0)),
    (1.5, 1.4, 0.0, (7.5, 3.0)),
    (2.0, 0.1, 1e-12, (1.5, 0.2)),
    (0.0, 0.0, -0.1, (6.0, 6.0)),       # negative output variance
    (0.0, 0.0, 1.0, (0.5, 6.0)),        # shape <= 1
    (0.0, 0.0, 0.0, (6.0, 0.0)),        # zero collapse variance
    (0.0, 0.0, math.inf, (6.0, 6.0)),   # -inf log Z
    (math.nan, 0.0, 1.0, (6.0, 6.0)),   # NaN target
    (1e160, 0.0, 1.0, (6.0, 6.0)),      # squared residual overflows
    (40.0, 0.0, 1e-3, (6.0, 6.0)),
]


def likelihood_cases():
    rng = np.random.default_rng(4)
    cases = list(LIKELIHOOD_CASES)
    for _ in range(300):
        y, mz = rng.normal(0.0, 3.0, 2)
        cases.append((float(y), float(mz), float(rng.uniform(0.0, 2.0)),
                      (float(rng.uniform(1.01, 40.0)), float(rng.uniform(0.01, 40.0)))))
    return cases


def test_likelihood_triple_and_gamma_refine_match():
    cases = likelihood_cases()
    step = likelihood_step(cases)
    for r, (y, mz, vz, (a, b)) in enumerate(cases):
        g = GammaDist(a, b)
        got_g = _bits(float(step.gamma_next[0, r])) + _bits(float(step.gamma_next[1, r]))
        try:
            want = ref.likelihood_log_z_triple(y, mz, vz, g)
        except OverflowError:
            # The reference aborts on an overflowing squared residual; the
            # kernel skips the example instead.
            want = None
        if want is None:
            assert step.skipped[r]
            assert got_g == _bits(a) + _bits(b)
            continue
        assert not step.skipped[r]
        got = step.log_z[:, r].tolist()
        assert [_bits(x) for x in got] == [_bits(x) for x in (want.log_z, want.log_z1, want.log_z2)]
        want_g = ref.gamma_refine(g, want)
        # A rejected match is the one that leaves the Gamma as it was.
        assert (got_g == _bits(a) + _bits(b)) == (want_g is g)
        assert got_g == _bits(want_g.shape) + _bits(want_g.rate)


@pytest.mark.parametrize(
    "logz",
    [(0.3, 0.3, 0.3), (0.1, 0.25, 0.4), (0.0, 1.0, 0.0), (0.0, 800.0, 0.0), (-900.0, 0.0, 900.0)],
)
def test_gamma_refine_matches_on_its_branches(logz):
    g = GammaDist(6.0, 6.0)
    want = ref.gamma_refine(g, ref.LogZTriple(*logz))
    got = ref._gamma_moments(g.shape, g.rate, *logz)
    assert (got is None) == (want is g)
    assert (got or (g.shape, g.rate)) == (want.shape, want.rate)


# ------------------------------------------------------------- training


def per_run(reference, stack, sites):
    """A reference prior loop applied to each run of a stack in turn, on the
    stack's (4, R, W) sites, as train_runs did before the stacked kernel."""
    reports = []
    for r in range(stack.lam.shape[1]):
        net = stack.run(r)
        reports.append(reference(net, Sites(sites[:, r], stack.layer_sizes)))
        stack.lam[:, r] = (net.lam.shape, net.lam.rate)
    return reports


def per_run_incorporate(stack):
    sites = np.zeros((4, *stack.means.shape))
    per_run(ref.incorporate_all_prior_factors, stack, sites)
    return sites


def per_run_refresh(stack, sites):
    reports = per_run(ref.ep_refresh_prior, stack, sites)
    return RefreshReport(
        sum(rep.sites_visited for rep in reports),
        sum(rep.sites_skipped for rep in reports),
        max(rep.max_abs_change for rep in reports),
        [(rep.sites_skipped, rep.max_abs_change) for rep in reports],
    )


def reference_noise_step(step):
    """kernel.NoiseStep's call through the reference likelihood triple and
    Gamma match; a skipped run's gradient target is its output mean."""
    skips = 0
    for r in range(len(step.skipped)):
        g = GammaDist(*step.gamma[:, r].tolist())
        t = ref.likelihood_log_z_triple(*step.moments[:, r].tolist(), g)
        step.skipped[r] = t is None
        step.targets[r] = step.mz[r] if t is None else step.y[r]
        skips += t is None
        refined = g if t is None else ref.gamma_refine(g, t)
        step.gamma_next[:, r] = (refined.shape, refined.rate)
        step.log_z[:, r] = math.nan if t is None else (t.log_z, t.log_z1, t.log_z2)
    return skips


def reference_tail(monkeypatch):
    """Route training through the reference prior, EP, likelihood-triple and
    Gamma code in place of the kernel's: its examples go through the
    per-example driver, whose noise step is the NoiseStep's call."""
    monkeypatch.setattr(training, "incorporate_all_prior_factors", per_run_incorporate)
    monkeypatch.setattr(training, "ep_refresh_prior", per_run_refresh)
    monkeypatch.setattr(training, "incorporate_likelihood_factors", epoch_by_phases)
    monkeypatch.setattr(kernel.NoiseStep, "__call__", reference_noise_step)


@pytest.mark.parametrize("hidden", [(4,), (3, 3)])
def test_training_matches_the_reference_tail(monkeypatch, hidden):
    dataset = toy_cubic_dataset(30, 8)
    datasets, states = [], []
    for r in range(3):
        rng = np.random.default_rng(40 + r)
        datasets.append(normalize(split(dataset, 0.1, rng)[0])[0])
        states.append(rng.bit_generator.state)

    def rngs():
        out = [np.random.default_rng() for _ in states]
        for rng, s in zip(out, states):
            rng.bit_generator.state = s
        return out

    cfg = PbpConfig(hidden_layer_sizes=hidden, epochs=3)
    got = train_runs(datasets, cfg, rngs())
    with monkeypatch.context() as m:
        reference_tail(m)
        want = train_runs(datasets, cfg, rngs())
    for (net, sites, report), (ref_net, ref_sites, ref_report) in zip(got, want, strict=True):
        assert state(net, sites) == state(ref_net, ref_sites)
        assert _bits(report.epoch_rmse) == _bits(ref_report.epoch_rmse)
        assert (report.undo_events, report.examples_skipped) == (
            ref_report.undo_events, ref_report.examples_skipped
        )
        assert [(n, _bits(c)) for n, c in report.refreshes] == [
            (n, _bits(c)) for n, c in ref_report.refreshes
        ]
