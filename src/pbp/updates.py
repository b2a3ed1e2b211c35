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
    vecmat,
)
from .gauss import gaussian_log_density
from .posterior import GammaDist, LayerPosterior, NetworkPosterior, PosteriorStack


class NegativeVarianceError(Exception):
    """A Gaussian refinement produced a non-positive variance; caller undoes."""


@dataclass
class LogZTriple:
    """Log-normalizers at Gamma shape, shape+1 and shape+2."""

    log_z: float
    log_z1: float
    log_z2: float

    def is_finite(self) -> bool:
        return all(map(math.isfinite, (self.log_z, self.log_z1, self.log_z2)))


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


def backward_gradients(
    net: NetworkPosterior | PosteriorStack, trace: ForwardTrace, y: float | np.ndarray
) -> GradientStore:
    """Gradients of the likelihood log Z w.r.t. every weight mean and variance.

    Seeds with d log Z / d(output moments) and walks the trace in reverse,
    applying the exact partial derivatives of the linear and rectifier moment
    maps as implemented in the forward pass. For a PosteriorStack, y holds one
    target per run and every gradient carries the leading runs axis.
    """
    if isinstance(net, PosteriorStack):
        noise = np.array([g.rate / (g.shape - 1.0) for g in net.gammas])
    else:
        noise = net.gamma.rate / (net.gamma.shape - 1.0)
    total = noise + trace.output_variance
    diff = y - trace.output_mean
    dma = np.asarray(diff / total)[..., None]
    dva = np.asarray(0.5 * (diff * diff / (total * total) - 1.0 / total))[..., None]

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

    means_sq is M*M as the forward pass computed it.
    """
    c = layer.cols
    inv_c = 1.0 / c
    inv_s = 1.0 / math.sqrt(c)
    m, v = layer.means, layer.variances
    mz, vz = z.mean, z.variance
    dma_col, dva_col = dma[..., :, None], dva[..., :, None]

    dM = dma_col * mz[..., None, :] * inv_s + 2.0 * inv_c * m * (dva_col * vz[..., None, :])
    dV = inv_c * (dva_col * (mz * mz + vz)[..., None, :])
    dmz = inv_s * vecmat(dma, m) + 2.0 * inv_c * mz * vecmat(dva, v)
    dvz = inv_c * vecmat(dva, means_sq + v)
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

    grads = backward_gradients(net, trace, y)
    # Runs that skip this example keep their weights; only a stack has any.
    hold = skipped[:, None, None] if skipped.any() else None

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
            gammas[r] = gamma_refine(gammas[r], triple)
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
    skipped, undo = _incorporate(stack, x, y, stack.gammas)
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
