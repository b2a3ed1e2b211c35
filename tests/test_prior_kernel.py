"""The scalar prior / EP / Gamma kernel of `pbp.updates` against the loops it
replaced.

The reference below is the per-weight code that preceded the kernel, kept
verbatim: `ep_refresh_prior`, `incorporate_prior_factor` /
`incorporate_all_prior_factors`, `gamma_refine` and `_likelihood_triple`, with
the helpers they called. The kernel must match it bit for bit: weight means
and variances, all four prior-site arrays, both Gammas and the RefreshReport,
on trained posteriors and on hand-built cases that reach every branch.
"""

import copy
import math
import struct
from dataclasses import dataclass

import numpy as np
import pytest

import pbp.training as training
import pbp.updates as updates
from conftest import toy_cubic_dataset
from pbp.data import normalize, split
from pbp.gauss import gaussian_log_density
from pbp.posterior import GammaDist, NetworkPosterior, PbpConfig, new_uniform
from pbp.training import train, train_runs
from pbp.updates import NegativeVarianceError, PriorSiteStore, RefreshReport

# ---------------------------------------------------------------- reference


@dataclass
class LogZTriple:
    """Log-normalizers at Gamma shape, shape+1 and shape+2."""

    log_z: float
    log_z1: float
    log_z2: float

    def is_finite(self) -> bool:
        return all(map(math.isfinite, (self.log_z, self.log_z1, self.log_z2)))


def gaussian_refine(m: float, v: float, dm: float, dv: float) -> tuple[float, float]:
    """Moment-matched Gaussian update from the gradients of log Z.

    m_new = m + v * dm
    v_new = v - v^2 * (dm^2 - 2 dv)

    Raises NegativeVarianceError when the refined variance is not a positive
    finite number; the caller decides whether to undo.
    """
    m_new = m + v * dm
    v_new = v - v * v * (dm * dm - 2.0 * dv)
    if not (v_new > 0.0 and math.isfinite(v_new) and math.isfinite(m_new)):
        raise NegativeVarianceError(f"refined variance {v_new} (from v={v})")
    return m_new, v_new


def gamma_refine(g: GammaDist, logz: LogZTriple) -> GammaDist:
    """Match the first two tilted moments of the precision.

    With Z_k the normalizer at shape+k, the tilted moments are
    E[x]   = (Z1/Z)  * shape/rate
    E[x^2] = (Z2/Z)  * shape*(shape+1)/rate^2
    and the matched Gamma follows from mean and variance. Invalid results
    (non-positive or non-finite parameters) reject the update and keep g.
    """
    a, b = g.shape, g.rate
    try:
        r_z2 = math.exp(logz.log_z + logz.log_z2 - 2.0 * logz.log_z1)
        r_21 = math.exp(logz.log_z2 - logz.log_z1)
        r_10 = math.exp(logz.log_z1 - logz.log_z)
    except OverflowError:
        return g
    denom_shape = r_z2 * (a + 1.0) / a - 1.0
    denom_rate = r_21 * (a + 1.0) / b - r_10 * a / b
    if denom_shape <= 0.0 or denom_rate <= 0.0:
        return g
    shape_new = 1.0 / denom_shape
    rate_new = 1.0 / denom_rate
    if not (math.isfinite(shape_new) and math.isfinite(rate_new)):
        return g
    return GammaDist(shape=shape_new, rate=rate_new)


def log_z_prior_factor(m: float, v: float, lam: GammaDist, shift: int = 0) -> float:
    """Approximate log-normalizer of one zero-mean weight-prior factor.

    Marginalizing the Gamma precision gives a Student's t in the weight, which
    is collapsed to the Gaussian of equal mean and variance:

      log Z = log N(m | 0, rate/(shape+shift-1) + v)

    shift in {0, 1, 2} realizes the Z, Z1, Z2 evaluations.
    """
    shape = lam.shape + shift
    if shape <= 1.0:
        raise ValueError(f"Gamma shape {shape} <= 1: cannot collapse t to Gaussian")
    return gaussian_log_density(m, 0.0, lam.rate / (shape - 1.0) + v)


def log_z_likelihood(
    y: float, mz: float, vz: float, gam: GammaDist, shift: int = 0
) -> float:
    """Approximate log-normalizer of one likelihood factor.

    log Z = log N(y | mz, rate/(shape+shift-1) + vz), the Gaussian collapse of
    the Student's t obtained by marginalizing the noise precision.
    """
    if vz < 0.0:
        raise ValueError(f"negative output variance {vz}")
    shape = gam.shape + shift
    if shape <= 1.0:
        raise ValueError(f"Gamma shape {shape} <= 1: cannot collapse t to Gaussian")
    return gaussian_log_density(y, mz, gam.rate / (shape - 1.0) + vz)


def _prior_logz_gradients(m: float, v: float, lam: GammaDist) -> tuple[float, float]:
    """d log Z / dm and d log Z / dv for the prior-factor normalizer."""
    total = lam.rate / (lam.shape - 1.0) + v
    dm = -m / total
    dv = 0.5 * (m * m / (total * total) - 1.0 / total)
    return dm, dv


def incorporate_prior_factor(
    net: NetworkPosterior,
    layer_idx: int,
    i: int,
    j: int,
    sites: PriorSiteStore,
) -> None:
    """ADF-incorporate the zero-mean prior factor of one weight.

    Updates that weight's Gaussian marginal, the shared prior-precision Gamma,
    and records the implied site. The infinite-variance uniform state resolves
    through the closed-form limit: the weight collapses onto the collapsed
    Gaussian prior and the precision factor is untouched (all Z ratios -> 1).
    """
    layer = net.layers[layer_idx]
    m = float(layer.means[i, j])
    v = float(layer.variances[i, j])
    lam = net.lam

    if math.isinf(v):
        sigma2 = lam.rate / (lam.shape - 1.0)
        m_new, v_new = 0.0, sigma2
        lam_new = lam
    else:
        dm, dv = _prior_logz_gradients(m, v, lam)
        m_new, v_new = gaussian_refine(m, v, dm, dv)
        triple = LogZTriple(
            log_z_prior_factor(m, v, lam, 0),
            log_z_prior_factor(m, v, lam, 1),
            log_z_prior_factor(m, v, lam, 2),
        )
        lam_new = gamma_refine(lam, triple)

    _set_gaussian_site(sites, layer_idx, i, j, m, v, m_new, v_new)
    sites.lam_shape[layer_idx][i, j] = lam_new.shape - lam.shape
    sites.lam_rate[layer_idx][i, j] = lam_new.rate - lam.rate
    layer.means[i, j] = m_new
    layer.variances[i, j] = v_new
    net.lam = lam_new


def _set_gaussian_site(sites, layer_idx, i, j, m_old, v_old, m_new, v_new):
    """Store site = refined marginal / previous marginal, in natural params."""
    if math.isinf(v_old):
        p_old, pm_old = 0.0, 0.0
    else:
        p_old, pm_old = 1.0 / v_old, m_old / v_old
    sites.precision[layer_idx][i, j] = 1.0 / v_new - p_old
    sites.precision_mean[layer_idx][i, j] = m_new / v_new - pm_old


def incorporate_all_prior_factors(net: NetworkPosterior, sites: PriorSiteStore) -> None:
    """Sequentially incorporate every weight's prior factor, row-major order."""
    for layer_idx, layer in enumerate(net.layers):
        for i in range(layer.rows):
            for j in range(layer.cols):
                incorporate_prior_factor(net, layer_idx, i, j, sites)


def _likelihood_triple(y: float, mz: float, vz: float, gam: GammaDist) -> LogZTriple | None:
    """The likelihood log-Z triple of one example, or None when it is unusable
    (invalid arguments or a non-finite value): the example is then skipped."""
    try:
        triple = LogZTriple(
            log_z_likelihood(y, mz, vz, gam, 0),
            log_z_likelihood(y, mz, vz, gam, 1),
            log_z_likelihood(y, mz, vz, gam, 2),
        )
    except ValueError:
        return None
    return triple if triple.is_finite() else None


def ep_refresh_prior(net: NetworkPosterior, sites: PriorSiteStore) -> RefreshReport:
    """One EP sweep over the stored prior sites.

    Per weight: remove the site (natural-parameter subtraction), redo the
    tilted moment-match against the cavity, and store the new site. Cavities
    with non-positive Gaussian precision are skipped; a cavity with exactly
    zero precision (no likelihood information yet) takes the same closed-form
    flat limit as the first incorporation. Gamma cavities whose shape would
    not support the Gaussian collapse leave the precision factor untouched.
    """
    visited = 0
    skipped = 0
    max_change = 0.0

    for layer_idx, layer in enumerate(net.layers):
        prec = sites.precision[layer_idx]
        prec_mean = sites.precision_mean[layer_idx]
        site_shape = sites.lam_shape[layer_idx]
        site_rate = sites.lam_rate[layer_idx]
        for i in range(layer.rows):
            for j in range(layer.cols):
                visited += 1
                m = float(layer.means[i, j])
                v = float(layer.variances[i, j])
                p_cav = 1.0 / v - float(prec[i, j])
                eta_cav = m / v - float(prec_mean[i, j])
                if p_cav < 0.0:
                    skipped += 1
                    continue

                a_cav = net.lam.shape - float(site_shape[i, j])
                b_cav = net.lam.rate - float(site_rate[i, j])
                gamma_ok = a_cav > 1.0 and b_cav > 0.0
                lam_cav = GammaDist(a_cav, b_cav) if gamma_ok else net.lam

                if p_cav == 0.0:
                    # Flat cavity: the limit of the refinement keeps the
                    # cavity's natural mean and collapses onto the prior.
                    sigma2 = lam_cav.rate / (lam_cav.shape - 1.0)
                    m_new, v_new = sigma2 * eta_cav, sigma2
                    lam_new = lam_cav
                    m_cav_over_v = eta_cav
                else:
                    v_cav = 1.0 / p_cav
                    m_cav = eta_cav * v_cav
                    dm, dv = _prior_logz_gradients(m_cav, v_cav, lam_cav)
                    try:
                        m_new, v_new = gaussian_refine(m_cav, v_cav, dm, dv)
                    except NegativeVarianceError:
                        skipped += 1
                        continue
                    if gamma_ok:
                        triple = LogZTriple(
                            log_z_prior_factor(m_cav, v_cav, lam_cav, 0),
                            log_z_prior_factor(m_cav, v_cav, lam_cav, 1),
                            log_z_prior_factor(m_cav, v_cav, lam_cav, 2),
                        )
                        lam_new = gamma_refine(lam_cav, triple)
                    else:
                        lam_new = net.lam
                    m_cav_over_v = eta_cav

                prec[i, j] = 1.0 / v_new - p_cav
                prec_mean[i, j] = m_new / v_new - m_cav_over_v
                if gamma_ok:
                    site_shape[i, j] = lam_new.shape - a_cav
                    site_rate[i, j] = lam_new.rate - b_cav
                    delta_lam = max(
                        abs(lam_new.shape - net.lam.shape),
                        abs(lam_new.rate - net.lam.rate),
                    )
                    net.lam = lam_new
                else:
                    delta_lam = 0.0

                max_change = max(
                    max_change,
                    abs(m_new - m),
                    abs(v_new - v),
                    delta_lam,
                )
                layer.means[i, j] = m_new
                layer.variances[i, j] = v_new

    return RefreshReport(
        sites_visited=visited, sites_skipped=skipped, max_abs_change=max_change
    )


# -------------------------------------------------------------------- tests


def _bits(x) -> bytes:
    if isinstance(x, float):
        return struct.pack("<d", x)
    return np.asarray(x, dtype=float).tobytes()


def state(net, sites):
    """Everything a prior loop may change, as bytes."""
    arrays = [layer.means for layer in net.layers] + [layer.variances for layer in net.layers]
    for name in ("precision", "precision_mean", "lam_shape", "lam_rate"):
        arrays += getattr(sites, name)
    gammas = [net.gamma.shape, net.gamma.rate, net.lam.shape, net.lam.rate]
    return [_bits(a) for a in arrays] + [_bits(float(g)) for g in gammas]


def same_report(got: RefreshReport, want: RefreshReport) -> bool:
    return (
        got.sites_visited == want.sites_visited
        and got.sites_skipped == want.sites_skipped
        and _bits(got.max_abs_change) == _bits(want.max_abs_change)
    )


def assert_same(fn_kernel, fn_reference, net, sites, *where):
    """Run the kernel as fn(net, *where, sites) and the reference on a copy;
    their outcomes (result, or the type of what they raised) and the states
    they leave must be equal. Returns the reference's outcome."""
    ref_net, ref_sites = copy.deepcopy(net), copy.deepcopy(sites)
    outcomes = []
    for fn, n, s in ((fn_kernel, net, sites), (fn_reference, ref_net, ref_sites)):
        try:
            outcomes.append(fn(n, *where, s))
        except Exception as exc:  # what is raised is part of the behaviour
            outcomes.append(type(exc))
    got, want = outcomes
    if isinstance(want, RefreshReport):
        assert same_report(got, want), (got, want)
    else:
        assert got == want
    assert state(net, sites) == state(ref_net, ref_sites)
    return want


def trained(hidden, seed=3, n=24, epochs=2):
    ds = toy_cubic_dataset(n, seed)
    cfg = PbpConfig(hidden_layer_sizes=hidden, epochs=epochs)
    net, sites, _ = train(normalize(ds)[0], cfg, np.random.default_rng(seed))
    return net, sites


HIDDEN = [(4,), (3, 3), (50,)]


@pytest.mark.parametrize("hidden", HIDDEN)
def test_first_incorporation_from_the_uniform_state(hidden):
    net = new_uniform([2, *hidden, 1])
    net.lam = GammaDist(6.0, 6.0)
    assert_same(
        updates.incorporate_all_prior_factors, incorporate_all_prior_factors,
        net, PriorSiteStore.zeros(net),
    )


@pytest.mark.parametrize("hidden", HIDDEN)
def test_incorporation_on_a_trained_posterior(hidden):
    # Finite variances: every weight takes the refinement and the Gamma refine.
    net, _ = trained(hidden)
    assert_same(
        updates.incorporate_all_prior_factors, incorporate_all_prior_factors,
        net, PriorSiteStore.zeros(net),
    )
    for l, layer in enumerate(net.layers):
        i, j = layer.rows - 1, layer.cols // 2
        assert_same(
            updates.incorporate_prior_factor, incorporate_prior_factor,
            net, PriorSiteStore.zeros(net), l, i, j,
        )


@pytest.mark.parametrize("hidden", HIDDEN)
def test_ep_refresh_on_trained_posteriors(hidden):
    net, sites = trained(hidden)
    for _ in range(3):  # each sweep starts from the sites the last one stored
        report = assert_same(updates.ep_refresh_prior, ep_refresh_prior, net, sites)
        assert report.sites_visited == net.n_weights()


def one_layer(weights):
    """A 1-row layer holding one hand-built site per weight:
    (mean, variance, site precision, site precision-mean, site shape, site rate)."""
    net = new_uniform([len(weights) - 1, 1])
    net.gamma = net.lam = GammaDist(6.0, 6.0)
    sites = PriorSiteStore.zeros(net)
    arrays = [net.layers[0].means, net.layers[0].variances, *(
        getattr(sites, name)[0] for name in ("precision", "precision_mean", "lam_shape", "lam_rate")
    )]
    for k, values in enumerate(weights):
        for arr, value in zip(arrays, values):
            arr[0, k] = value
    return net, sites


def test_ep_refresh_reaches_every_branch():
    net, sites = one_layer([
        (0.2, 1.0, 6.0, 0.0, 0.0, 0.0),      # negative cavity precision: skipped
        (0.3, 1.2, 1.0 / 1.2, 0.0, 0.0, 0.0),  # flat cavity
        (0.3, 1.2, math.nextafter(1.0 / 1.2, 0.0), 0.0, 0.0, 0.0),  # nearly flat: cancels, skipped
        (0.1, 1e308, math.nextafter(1.0 / 1e308, 0.0), 0.0, 0.0, 0.0),  # cavity variance inf: skipped
        (0.2, 0.5, 0.3, 0.1, 5.5, 0.0),      # Gamma cavity shape 0.5: gamma_ok false
        (1e200, 1.0, 0.5, 0.0, 0.0, 0.0),    # refined variance not finite: skipped
        (1000.0, 1.0, 0.0, 0.0, 0.0, 0.0),   # OverflowError in the Z ratios
        (0.5, 0.9, 0.3, 0.2, 0.0, 6.0),      # Gamma cavity rate exactly 0: gamma_ok false
        (0.5, 0.9, 0.3, 0.2, 5.0, 0.0),      # Gamma cavity shape exactly 1: gamma_ok false
        (0.4, 0.8, 0.2, 0.1, -1e20, -1e20),  # Gamma cavity (1e20, 1e20): refine rejected
    ])
    report = assert_same(updates.ep_refresh_prior, ep_refresh_prior, net, sites)
    assert report.sites_skipped == 4
    # The rejected refine leaves the Gamma at its cavity, as the reference does.
    assert net.lam.shape == 1e20
    # A second sweep starts from the sites and Gamma the first one stored.
    assert_same(updates.ep_refresh_prior, ep_refresh_prior, net, sites)


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
    net, sites = one_layer([(m, v, 0.0, 0.0, 0.0, 0.0) for m, v in weights])
    net.lam = GammaDist(*lam)
    assert_same(updates.incorporate_all_prior_factors, incorporate_all_prior_factors, net, sites)


def test_ep_refresh_with_an_inflated_site_on_a_trained_posterior():
    net, sites = trained((4,))
    sites.precision[0][0, 0] = 1.0 / net.layers[0].variances[0, 0] + 5.0
    sites.lam_shape[1][0, 2] = net.lam.shape  # Gamma cavity shape 0
    report = assert_same(updates.ep_refresh_prior, ep_refresh_prior, net, sites)
    assert report.sites_skipped == 1


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
    for y, mz, vz, (a, b) in likelihood_cases():
        g = GammaDist(a, b)
        try:
            want = _likelihood_triple(y, mz, vz, g)
        except OverflowError:
            with pytest.raises(OverflowError):
                updates._likelihood_triple(y, mz, vz, g)
            continue
        got = updates._likelihood_triple(y, mz, vz, g)
        if want is None:
            assert got is None
            continue
        assert [_bits(x) for x in got] == [_bits(x) for x in (want.log_z, want.log_z1, want.log_z2)]
        want_g = gamma_refine(g, want)
        got_g = updates.gamma_refine(g, updates.LogZTriple(*got))
        assert (got_g is g) == (want_g is g)
        assert _bits(got_g.shape) + _bits(got_g.rate) == _bits(want_g.shape) + _bits(want_g.rate)


@pytest.mark.parametrize(
    "logz",
    [(0.3, 0.3, 0.3), (0.1, 0.25, 0.4), (0.0, 1.0, 0.0), (0.0, 800.0, 0.0), (-900.0, 0.0, 900.0)],
)
def test_gamma_refine_matches_on_its_branches(logz):
    g = GammaDist(6.0, 6.0)
    want = gamma_refine(g, LogZTriple(*logz))
    got = updates.gamma_refine(g, updates.LogZTriple(*logz))
    assert (got is g) == (want is g)
    assert (got.shape, got.rate) == (want.shape, want.rate)


def reference_tail(monkeypatch):
    """Route training through the reference prior, EP, likelihood-triple and
    Gamma code (adapted to the kernel's float tuples)."""

    def likelihood_triple(y, mz, vz, gam):
        t = _likelihood_triple(y, mz, vz, gam)
        return None if t is None else (t.log_z, t.log_z1, t.log_z2)

    def gamma_moments(a, b, *logz):
        g = GammaDist(a, b)
        out = gamma_refine(g, LogZTriple(*logz))
        return None if out is g else (out.shape, out.rate)

    monkeypatch.setattr(training, "incorporate_all_prior_factors", incorporate_all_prior_factors)
    monkeypatch.setattr(training, "ep_refresh_prior", ep_refresh_prior)
    monkeypatch.setattr(updates, "_likelihood_triple", likelihood_triple)
    monkeypatch.setattr(updates, "_gamma_moments", gamma_moments)


@pytest.mark.parametrize("refresh", [None, 4])
@pytest.mark.parametrize("hidden", [(4,), (3, 3)])
def test_training_matches_the_reference_tail(monkeypatch, hidden, refresh):
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

    cfg = PbpConfig(hidden_layer_sizes=hidden, epochs=3, refresh_every_n_examples=refresh)
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
