"""Normalizer approximations, their gradients, and the ADF/EP update rules.

One likelihood or prior factor is folded into the posterior by moment-matching
the tilted distribution (factor x current posterior, normalized by Z):

  * Gaussian weight marginals move along the gradients of log Z.
  * The Gamma precision factors match the first two tilted moments of the
    precision, computed from Z evaluated at shape, shape+1, shape+2.

All Z bookkeeping stays in log space. Gradients of the likelihood log-Z with
respect to every weight mean and variance come from a hand-written
reverse-mode sweep over the moment maps of the forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forward import (
    ForwardTrace,
    MomentVector,
    ReluAux,
    forward_output_moments,
)
from .gauss import LOG_2PI, gaussian_log_density
from .posterior import GammaDist, LayerPosterior, NetworkPosterior, PosteriorStack


class NegativeVarianceError(Exception):
    """A Gaussian refinement produced a non-positive variance; caller undoes."""


@dataclass
class LogZTriple:
    """Log-normalizers at Gamma shape, shape+1 and shape+2."""

    log_z: float
    log_z1: float
    log_z2: float


@dataclass
class GradientStore:
    """Per-layer gradients of log Z w.r.t. weight means and variances."""

    d_means: list[np.ndarray]
    d_variances: list[np.ndarray]


class PriorSiteStore:
    """Stored approximate factors, one per weight-prior factor.

    Gaussian sites live in natural parameters (precision, precision x mean) so
    the cavity is a subtraction; each site's Gamma contribution to the prior
    precision is likewise additive in (shape - 1, rate).
    """

    def __init__(self, precision, precision_mean, lam_shape, lam_rate):
        self.precision = precision
        self.precision_mean = precision_mean
        self.lam_shape = lam_shape
        self.lam_rate = lam_rate

    @classmethod
    def zeros(cls, net: NetworkPosterior) -> "PriorSiteStore":
        shapes = [layer.means.shape for layer in net.layers]
        return cls(
            [np.zeros(s) for s in shapes],
            [np.zeros(s) for s in shapes],
            [np.zeros(s) for s in shapes],
            [np.zeros(s) for s in shapes],
        )


@dataclass
class RefreshReport:
    """Outcome of one EP sweep over the stored prior sites."""

    sites_visited: int
    sites_skipped: int
    max_abs_change: float


@dataclass
class UpdateOutcome:
    """Outcome of incorporating one likelihood factor; for a stack of runs,
    each field is an array with one entry per run."""

    skipped: bool | np.ndarray
    undo_count: int | np.ndarray
    weight_updates: int | np.ndarray


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
    refined = _gamma_moments(g.shape, g.rate, logz.log_z, logz.log_z1, logz.log_z2)
    return g if refined is None else GammaDist(*refined)


def _gamma_moments(a, b, log_z, log_z1, log_z2):
    """gamma_refine on floats: the matched (shape, rate), or None when rejected."""
    try:
        r_z2 = math.exp(log_z + log_z2 - 2.0 * log_z1)
        r_21 = math.exp(log_z2 - log_z1)
        r_10 = math.exp(log_z1 - log_z)
    except OverflowError:
        return None
    denom_shape = r_z2 * (a + 1.0) / a - 1.0
    denom_rate = r_21 * (a + 1.0) / b - r_10 * a / b
    if denom_shape <= 0.0 or denom_rate <= 0.0:
        return None
    shape_new = 1.0 / denom_shape
    rate_new = 1.0 / denom_rate
    if not (math.isfinite(shape_new) and math.isfinite(rate_new)):
        return None
    return shape_new, rate_new


def _log_z_triple(x, mean, v, shape, rate):
    """log N(x | mean, rate/(shape+k-1) + v) for k = 0, 1, 2 on floats.

    The Gaussian collapse of the Student's t left by marginalizing a Gamma
    precision, at the three shapes gamma_refine needs: log_z_likelihood of
    (x, mean, v) and log_z_prior_factor of (x, v) with mean 0. Raises
    ValueError where those would.
    """
    if shape <= 1.0:
        raise ValueError(f"Gamma shape {shape} <= 1: cannot collapse t to Gaussian")
    var0 = rate / (shape - 1.0) + v
    if var0 <= 0.0:
        raise ValueError(f"variance must be positive, got {var0}")
    sq = (x - mean) ** 2
    log_z = -0.5 * (LOG_2PI + math.log(var0) + sq / var0)
    var1 = rate / (shape + 1.0 - 1.0) + v
    if var1 <= 0.0:
        raise ValueError(f"variance must be positive, got {var1}")
    log_z1 = -0.5 * (LOG_2PI + math.log(var1) + sq / var1)
    var2 = rate / (shape + 2.0 - 1.0) + v
    if var2 <= 0.0:
        raise ValueError(f"variance must be positive, got {var2}")
    log_z2 = -0.5 * (LOG_2PI + math.log(var2) + sq / var2)
    return log_z, log_z1, log_z2


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


def _match_prior_site(flat, m, v, eta, a, b, gamma_ok):
    """Moment-match one zero-mean prior factor against the cavity N(m, v) x Gamma(a, b).

    Returns the refined (mean, variance, shape, rate). A flat cavity (zero
    precision, natural mean eta; m and v unused) resolves through the
    closed-form limit of the refinement: the weight collapses onto the
    collapsed Gaussian prior keeping eta, and the Gamma is untouched (all Z
    ratios -> 1). With gamma_ok False the Gamma is untouched as well. Raises
    NegativeVarianceError when the refined variance is invalid.
    """
    if flat:
        sigma2 = b / (a - 1.0)
        return sigma2 * eta, sigma2, a, b
    # d log Z / dm and d log Z / dv of log N(m | 0, b/(a-1) + v).
    total = b / (a - 1.0) + v
    m_new, v_new = gaussian_refine(
        m, v, -m / total, 0.5 * (m * m / (total * total) - 1.0 / total)
    )
    if gamma_ok:
        refined = _gamma_moments(a, b, *_log_z_triple(m, 0.0, v, a, b))
        if refined is not None:
            a, b = refined
    return m_new, v_new, a, b


def _site_arrays(net: NetworkPosterior, sites: PriorSiteStore):
    """Weight means, weight variances and the four site arrays, each per layer."""
    return (
        [layer.means for layer in net.layers],
        [layer.variances for layer in net.layers],
        sites.precision,
        sites.precision_mean,
        sites.lam_shape,
        sites.lam_rate,
    )


def _as_lists(groups):
    """Each group of arrays as one list of Python floats, array by array in
    row-major order: the order in which the prior loops visit the weights."""
    return [np.concatenate([a.ravel() for a in arrays]).tolist() for arrays in groups]


def _store_lists(groups, lists):
    """Write the lists back into their arrays in place (they may be views
    into a PosteriorStack)."""
    for arrays, values in zip(groups, lists):
        flat = np.array(values)
        start = 0
        for a in arrays:
            a[...] = flat[start : start + a.size].reshape(a.shape)
            start += a.size


def _incorporate_prior_factors(net: NetworkPosterior, groups) -> None:
    """ADF-incorporate the prior factors of the weights in groups, in order.

    Each refines its weight against the current marginal (a marginal of
    infinite variance is the flat cavity), refines the shared prior-precision
    Gamma, and records the implied site: refined marginal / previous marginal
    in natural parameters, and the Gamma's change.
    """
    means, variances, prec, prec_mean, site_shape, site_rate = lists = _as_lists(groups)
    a, b = net.lam.shape, net.lam.rate
    try:
        for k, (m, v) in enumerate(zip(means, variances)):
            flat = math.isinf(v)
            m_new, v_new, a_new, b_new = _match_prior_site(flat, m, v, 0.0, a, b, True)
            p_old, eta_old = (0.0, 0.0) if flat else (1.0 / v, m / v)
            prec[k] = 1.0 / v_new - p_old
            prec_mean[k] = m_new / v_new - eta_old
            site_shape[k] = a_new - a
            site_rate[k] = b_new - b
            means[k], variances[k], a, b = m_new, v_new, a_new, b_new
    finally:
        _store_lists(groups, lists)
        net.lam = GammaDist(a, b)


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
    cell = (slice(i, i + 1), slice(j, j + 1))
    groups = [[arrays[layer_idx][cell]] for arrays in _site_arrays(net, sites)]
    _incorporate_prior_factors(net, groups)


def incorporate_all_prior_factors(net: NetworkPosterior, sites: PriorSiteStore) -> None:
    """Sequentially incorporate every weight's prior factor, row-major order."""
    _incorporate_prior_factors(net, _site_arrays(net, sites))


def backward_gradients(
    net: NetworkPosterior | PosteriorStack, trace: ForwardTrace, y: float | np.ndarray
) -> GradientStore:
    """Gradients of the likelihood log Z w.r.t. every weight mean and variance.

    Seeds with d log Z / d(output moments) and walks the trace in reverse,
    applying the exact partial derivatives of the linear and rectifier moment
    maps as implemented in the forward pass. The trace holds one input row
    (per run); for a PosteriorStack, y holds one target per run and every
    gradient carries the leading runs axis.
    """
    if isinstance(net, PosteriorStack):
        noise = np.array([g.rate / (g.shape - 1.0) for g in net.gammas])
    else:
        noise = net.gamma.rate / (net.gamma.shape - 1.0)
    total = noise + trace.output_variance
    diff = y - trace.output_mean
    # Shape (*runs, 1 row, 1 output unit), as the forward pass's moments.
    dma = np.asarray(diff / total)[..., None, None]
    dva = np.asarray(0.5 * (diff * diff / (total * total) - 1.0 / total))[..., None, None]

    n_layers = len(net.layers)
    d_means: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
    d_variances: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]

    for l in range(n_layers - 1, -1, -1):
        rec = trace.records[l]
        dM, dV, dmz, dvz = _linear_backward(net.layers[l], rec.z_in, dma, dva, rec.means_sq)
        d_means[l] = dM
        d_variances[l] = dV
        if l > 0:
            # Drop the appended bias slot; its moments are constants.
            dmb, dvb = dmz[..., :-1], dvz[..., :-1]
            prev = trace.records[l - 1]
            dma, dva = _relu_backward(prev.pre, prev.relu, dmb, dvb)

    return GradientStore(d_means, d_variances)


def _linear_backward(layer: LayerPosterior, z: MomentVector, dma, dva, means_sq):
    """Backward through ma = M mz / sqrt(c), va = [(M*M) vz + V (mz^2 + vz)] / c.

    z and the output gradients hold one row (per run); means_sq is M*M as the
    forward pass computed it.
    """
    c = layer.cols
    inv_c = 1.0 / c
    inv_s = 1.0 / math.sqrt(c)
    m, v = layer.means, layer.variances
    mz, vz = z.mean, z.variance
    dma_col, dva_col = dma.swapaxes(-1, -2), dva.swapaxes(-1, -2)

    dM = dma_col * mz * inv_s + 2.0 * inv_c * m * (dva_col * vz)
    dV = inv_c * (dva_col * (mz * mz + vz))
    dmz = inv_s * (dma @ m) + 2.0 * inv_c * mz * (dva @ v)
    dvz = inv_c * (dva @ (means_sq + v))
    return dM, dV, dmz, dvz


def _relu_backward(pre: MomentVector, aux: ReluAux, dmb, dvb):
    """Backward through the rectifier moment map, branch for branch.

    Differentiates the forward expressions exactly, including through the
    asymptotic series for the pdf/cdf ratio where that branch was taken, so
    finite differences of the implemented forward pass agree everywhere.
    """
    m, v = pre.mean, pre.variance
    det = aux.deterministic
    any_det = det.any()
    v_safe = np.where(det, 1.0, v) if any_det else v
    s = aux.sqrt_v
    alpha = aux.alpha
    g = aux.ratio
    cdf, cdf_neg, pdf = aux.cdf, aux.cdf_neg, aux.pdf
    vp = aux.vprime

    dg_dalpha = -g * (alpha + g)
    if aux.series.any():
        alpha_s = np.where(aux.series, alpha, -1.0)
        dg_dalpha = np.where(
            aux.series, -1.0 + alpha_s**-2 - 6.0 * alpha_s**-4, dg_dalpha
        )

    dalpha_dm = 1.0 / s
    dalpha_dv = -alpha / (2.0 * v_safe)
    ds_dv = 1.0 / (2.0 * s)

    dvp_dm = 1.0 + dg_dalpha
    dvp_dv = ds_dv * g + s * dg_dalpha * dalpha_dv

    dcdf_dm = pdf * dalpha_dm
    dcdf_dv = pdf * dalpha_dv

    mb = cdf * vp
    dmb_dm = dcdf_dm * vp + cdf * dvp_dm
    dmb_dv = dcdf_dv * vp + cdf * dvp_dv

    u = 1.0 - g * (g + alpha)
    du_dalpha = -dg_dalpha * (2.0 * g + alpha) - g

    # vb = mb * vp * Phi(-alpha) + Phi(alpha) * v * u
    mb_vp_pdf = mb * vp * pdf
    cdf_v_du = cdf * v_safe * du_dalpha
    dvb_dm = (
        dmb_dm * vp * cdf_neg
        + mb * dvp_dm * cdf_neg
        - mb_vp_pdf * dalpha_dm
        + dcdf_dm * v_safe * u
        + cdf_v_du * dalpha_dm
    )
    dvb_dv = (
        dmb_dv * vp * cdf_neg
        + mb * dvp_dv * cdf_neg
        - mb_vp_pdf * dalpha_dv
        + dcdf_dv * v_safe * u
        + cdf * u
        + cdf_v_du * dalpha_dv
    )

    dma = dmb * dmb_dm + dvb * dvb_dm
    dva = dmb * dmb_dv + dvb * dvb_dv

    if any_det:
        # Deterministic units: mb = max(0, m), vb = 0.
        dma = np.where(det, dmb * (m > 0.0), dma)
        dva = np.where(det, 0.0, dva)
    return dma, dva


def _likelihood_triple(y: float, mz: float, vz: float, gam: GammaDist):
    """The likelihood log-Z triple of one example, or None when it is unusable
    (invalid arguments, a squared residual that overflows, or a non-finite
    value): the example is then skipped."""
    if vz < 0.0:
        return None
    try:
        triple = _log_z_triple(y, mz, vz, gam.shape, gam.rate)
    except (ValueError, OverflowError):
        return None
    return triple if all(map(math.isfinite, triple)) else None


def _incorporate(net: NetworkPosterior | PosteriorStack, x, y, gammas: list[GammaDist]):
    """The likelihood update shared by one network and a stack of runs.

    gammas holds each run's noise Gamma and is refined in place. Returns the
    per-run skip mask and undo counts (a scalar count without a runs axis);
    the undo count of a skipped run is meaningless.
    """
    mz, vz, trace = forward_output_moments(net, x)
    triples = [
        _likelihood_triple(*args)
        for args in zip(np.ravel(y).tolist(), np.ravel(mz).tolist(), np.ravel(vz).tolist(), gammas)
    ]
    skipped = np.array([t is None for t in triples])
    if skipped.all():
        return skipped, 0

    # Runs that skip this example keep their weights; only a stack has any.
    hold = None
    if skipped.any():
        hold = skipped[:, None, None]
        # Their gradients are discarded; a zero residual keeps them finite
        # where an overflowing one would fill them with inf and NaN.
        y = np.where(skipped, trace.output_mean, y)
    grads = backward_gradients(net, trace, y)

    undo = 0
    for layer, dM, dV in zip(net.layers, grads.d_means, grads.d_variances):
        m, v = layer.means, layer.variances
        m_new = m + v * dM
        v_new = v - v * v * (dM * dM - 2.0 * dV)
        bad = ~(v_new > 0.0) | ~np.isfinite(v_new) | ~np.isfinite(m_new)
        undo = undo + bad.sum(axis=(-2, -1))
        if hold is not None:
            bad |= hold
        if bad.any():
            layer.means = np.where(bad, m, m_new)
            layer.variances = np.where(bad, v, v_new)
        else:
            layer.means, layer.variances = m_new, v_new

    for r, triple in enumerate(triples):
        if triple is not None:
            refined = _gamma_moments(gammas[r].shape, gammas[r].rate, *triple)
            if refined is not None:
                gammas[r] = GammaDist(*refined)
    return skipped, undo


def incorporate_likelihood_factor(
    net: NetworkPosterior, x: np.ndarray, y: float
) -> UpdateOutcome:
    """Fold one observation into the posterior.

    One probabilistic forward pass, one reverse gradient sweep, then the
    Gaussian refinement for every weight and the tilted-moment update for the
    noise-precision Gamma. Weights whose refined variance would be invalid are
    rolled back individually; a non-finite log Z skips the whole example.
    """
    gammas = [net.gamma]
    skipped, undo = _incorporate(net, x, y, gammas)
    net.gamma = gammas[0]
    if skipped[0]:
        return UpdateOutcome(skipped=True, undo_count=0, weight_updates=0)
    return UpdateOutcome(skipped=False, undo_count=int(undo), weight_updates=net.n_weights())


def incorporate_likelihood_factors(
    stack: PosteriorStack, x: np.ndarray, y: np.ndarray
) -> UpdateOutcome:
    """Fold one observation per run into a stack: run r takes (x[r], y[r]).

    Each run's arithmetic is that of incorporate_likelihood_factor on that run
    alone, bit for bit. The outcome's fields are arrays over the runs.
    """
    skipped, undo = _incorporate(stack, x[:, None, :], y, stack.gammas)
    return UpdateOutcome(
        skipped=skipped,
        undo_count=np.where(skipped, 0, undo),
        weight_updates=np.where(skipped, 0, stack.n_weights()),
    )


def ep_refresh_prior(net: NetworkPosterior, sites: PriorSiteStore) -> RefreshReport:
    """One EP sweep over the stored prior sites.

    Per weight: remove the site (natural-parameter subtraction), redo the
    tilted moment-match against the cavity, and store the new site. Cavities
    with non-positive Gaussian precision are skipped; a cavity with exactly
    zero precision (no likelihood information yet) takes the same closed-form
    flat limit as the first incorporation. Gamma cavities whose shape would
    not support the Gaussian collapse leave the precision factor untouched.
    """
    groups = _site_arrays(net, sites)
    means, variances, prec, prec_mean, site_shape, site_rate = lists = _as_lists(groups)
    a, b = net.lam.shape, net.lam.rate
    skipped = 0
    max_change = 0.0
    try:
        for k, (m, v, p_site, eta_site, a_site, b_site) in enumerate(zip(*lists)):
            p_cav = 1.0 / v - p_site
            eta_cav = m / v - eta_site
            if p_cav < 0.0:
                skipped += 1
                continue
            a_cav = a - a_site
            b_cav = b - b_site
            gamma_ok = a_cav > 1.0 and b_cav > 0.0
            a_fit, b_fit = (a_cav, b_cav) if gamma_ok else (a, b)
            flat = p_cav == 0.0
            v_cav = math.inf if flat else 1.0 / p_cav
            try:
                m_new, v_new, a_new, b_new = _match_prior_site(
                    flat, eta_cav * v_cav, v_cav, eta_cav, a_fit, b_fit, gamma_ok
                )
            except NegativeVarianceError:
                skipped += 1
                continue

            prec[k] = 1.0 / v_new - p_cav
            prec_mean[k] = m_new / v_new - eta_cav
            if gamma_ok:
                site_shape[k] = a_new - a_cav
                site_rate[k] = b_new - b_cav
                delta_lam = max(abs(a_new - a), abs(b_new - b))
                a, b = a_new, b_new
            else:
                delta_lam = 0.0
            max_change = max(max_change, abs(m_new - m), abs(v_new - v), delta_lam)
            means[k] = m_new
            variances[k] = v_new
    finally:
        _store_lists(groups, lists)
        net.lam = GammaDist(a, b)

    return RefreshReport(
        sites_visited=len(means), sites_skipped=skipped, max_abs_change=max_change
    )
