"""The per-weight prior, EP and Gamma code that preceded the kernel of
`pbp.updates`, kept as the reference its tests compare against: verbatim, but
for the one-run entry its RefreshReport now carries.

It works on a stack of one and its `Sites`, weight by weight in row-major
order, on Python floats, with each Gamma a (shape, rate) pair: the ADF
incorporation of each weight's prior factor from any state
(`incorporate_prior_factor`, `incorporate_all_prior_factors`) and its
Gaussian refinement (`gaussian_refine`), the EP refresh of the stored sites
(`ep_refresh_prior`), the Gamma moment match (`gamma_refine`) and the
likelihood log-Z triple (`likelihood_log_z_triple`). Where it aborts, it leaves
the weights and sites it had reached changed. The Gaussian log-density and
the error a refinement raises, which the package no longer has, are frozen
here with it, and so are the per-layer site views the package dropped when
its sites became one plain array. Its last section keeps the Python-float
kernel that came after it, on stacks, until kernel.c replaced that in turn.
"""

import math
from dataclasses import dataclass

import numpy as np

from pbp.kernel import LOG_2PI
from pbp.posterior import NumericError, PosteriorStack, layer_views
from pbp.updates import RefreshReport


class Sites:
    """One network's prior sites: a (4, W) array laid out as the sites of
    `pbp.updates` (precision, precision x mean, Gamma shape and Gamma rate,
    weights in PosteriorStack order) and, per row, its per-layer (rows, cols)
    views `precision`, `precision_mean`, `lam_shape` and `lam_rate`. A deep
    copy copies the array and rebuilds the views on the copy."""

    def __init__(self, flat: np.ndarray, layer_sizes: list[int]):
        self.flat = flat
        self.layer_sizes = list(layer_sizes)
        self.precision, self.precision_mean, self.lam_shape, self.lam_rate = (
            layer_views(f, layer_sizes) for f in flat
        )

    @classmethod
    def zeros(cls, net: PosteriorStack) -> "Sites":
        return cls(np.zeros((4, net.means.shape[-1])), net.layer_sizes)

    def __deepcopy__(self, memo) -> "Sites":
        return Sites(self.flat.copy(), self.layer_sizes)


def weights(net: PosteriorStack, r: int = 0) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Run r's per-layer (rows, cols) weight means and variances: two lists
    of views into the stack (layer_views)."""
    return tuple(layer_views(flat[r], net.layer_sizes) for flat in (net.means, net.variances))


def _lam(net: PosteriorStack) -> tuple[float, float]:
    """The prior-precision Gamma of a stack of one."""
    return tuple(net.lam[:, 0].tolist())


class NegativeVarianceError(NumericError):
    """A Gaussian refinement produced a non-positive variance; caller undoes."""


def gaussian_log_density(x: float, mean: float, variance: float) -> float:
    """log N(x | mean, variance), variance > 0 (inf allowed, giving -inf)."""
    if variance <= 0.0:
        raise ValueError(f"variance must be positive, got {variance}")
    return -0.5 * (LOG_2PI + math.log(variance) + (x - mean) ** 2 / variance)


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


def gamma_refine(g: tuple[float, float], logz: LogZTriple) -> tuple[float, float]:
    """Match the first two tilted moments of the precision.

    With Z_k the normalizer at shape+k, the tilted moments are
    E[x]   = (Z1/Z)  * shape/rate
    E[x^2] = (Z2/Z)  * shape*(shape+1)/rate^2
    and the matched Gamma follows from mean and variance. Invalid results
    (non-positive or non-finite parameters) reject the update and keep g.
    """
    a, b = g
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
    return shape_new, rate_new


def log_z_prior_factor(m: float, v: float, lam: tuple[float, float], shift: int = 0) -> float:
    """Approximate log-normalizer of one zero-mean weight-prior factor.

    Marginalizing the Gamma precision gives a Student's t in the weight, which
    is collapsed to the Gaussian of equal mean and variance:

      log Z = log N(m | 0, rate/(shape+shift-1) + v)

    shift in {0, 1, 2} realizes the Z, Z1, Z2 evaluations.
    """
    shape = lam[0] + shift
    if shape <= 1.0:
        raise ValueError(f"Gamma shape {shape} <= 1: cannot collapse t to Gaussian")
    return gaussian_log_density(m, 0.0, lam[1] / (shape - 1.0) + v)


def log_z_likelihood(
    y: float, mz: float, vz: float, gam: tuple[float, float], shift: int = 0
) -> float:
    """Approximate log-normalizer of one likelihood factor.

    log Z = log N(y | mz, rate/(shape+shift-1) + vz), the Gaussian collapse of
    the Student's t obtained by marginalizing the noise precision.
    """
    if vz < 0.0:
        raise ValueError(f"negative output variance {vz}")
    shape = gam[0] + shift
    if shape <= 1.0:
        raise ValueError(f"Gamma shape {shape} <= 1: cannot collapse t to Gaussian")
    return gaussian_log_density(y, mz, gam[1] / (shape - 1.0) + vz)


def _prior_logz_gradients(m: float, v: float, lam: tuple[float, float]) -> tuple[float, float]:
    """d log Z / dm and d log Z / dv for the prior-factor normalizer."""
    total = lam[1] / (lam[0] - 1.0) + v
    dm = -m / total
    dv = 0.5 * (m * m / (total * total) - 1.0 / total)
    return dm, dv


def incorporate_prior_factor(
    net: PosteriorStack,
    layer_idx: int,
    i: int,
    j: int,
    sites: Sites,
) -> None:
    """ADF-incorporate the zero-mean prior factor of one weight.

    Updates that weight's Gaussian marginal, the shared prior-precision Gamma,
    and records the implied site. The infinite-variance uniform state resolves
    through the closed-form limit: the weight collapses onto the collapsed
    Gaussian prior and the precision factor is untouched (all Z ratios -> 1).
    """
    means, variances = (views[layer_idx] for views in weights(net))
    m = float(means[i, j])
    v = float(variances[i, j])
    lam = _lam(net)

    if math.isinf(v):
        sigma2 = lam[1] / (lam[0] - 1.0)
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
    sites.lam_shape[layer_idx][i, j] = lam_new[0] - lam[0]
    sites.lam_rate[layer_idx][i, j] = lam_new[1] - lam[1]
    means[i, j] = m_new
    variances[i, j] = v_new
    net.lam[:, 0] = lam_new


def _set_gaussian_site(sites, layer_idx, i, j, m_old, v_old, m_new, v_new):
    """Store site = refined marginal / previous marginal, in natural params."""
    if math.isinf(v_old):
        p_old, pm_old = 0.0, 0.0
    else:
        p_old, pm_old = 1.0 / v_old, m_old / v_old
    sites.precision[layer_idx][i, j] = 1.0 / v_new - p_old
    sites.precision_mean[layer_idx][i, j] = m_new / v_new - pm_old


def incorporate_all_prior_factors(net: PosteriorStack, sites: Sites) -> None:
    """Sequentially incorporate every weight's prior factor, row-major order."""
    for layer_idx, means in enumerate(weights(net)[0]):
        rows, cols = means.shape
        for i in range(rows):
            for j in range(cols):
                incorporate_prior_factor(net, layer_idx, i, j, sites)


def likelihood_log_z_triple(
    y: float, mz: float, vz: float, gam: tuple[float, float]
) -> LogZTriple | None:
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


def ep_refresh_prior(net: PosteriorStack, sites: Sites) -> RefreshReport:
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

    lam = _lam(net)
    for layer_idx, (means, variances) in enumerate(zip(*weights(net))):
        prec = sites.precision[layer_idx]
        prec_mean = sites.precision_mean[layer_idx]
        site_shape = sites.lam_shape[layer_idx]
        site_rate = sites.lam_rate[layer_idx]
        rows, cols = means.shape
        for i in range(rows):
            for j in range(cols):
                visited += 1
                m = float(means[i, j])
                v = float(variances[i, j])
                p_cav = 1.0 / v - float(prec[i, j])
                eta_cav = m / v - float(prec_mean[i, j])
                if p_cav < 0.0:
                    skipped += 1
                    continue

                a_cav = lam[0] - float(site_shape[i, j])
                b_cav = lam[1] - float(site_rate[i, j])
                gamma_ok = a_cav > 1.0 and b_cav > 0.0
                lam_cav = (a_cav, b_cav) if gamma_ok else lam

                if p_cav == 0.0:
                    # Flat cavity: the limit of the refinement keeps the
                    # cavity's natural mean and collapses onto the prior.
                    sigma2 = lam_cav[1] / (lam_cav[0] - 1.0)
                    if sigma2 != 0.0 and not 0.0 < sigma2 < math.inf:
                        # A prior shape fallen to 1 or below gives no
                        # variance (a zero one raises below).
                        skipped += 1
                        continue
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
                        lam_new = lam
                    m_cav_over_v = eta_cav

                prec[i, j] = 1.0 / v_new - p_cav
                prec_mean[i, j] = m_new / v_new - m_cav_over_v
                if gamma_ok:
                    site_shape[i, j] = lam_new[0] - a_cav
                    site_rate[i, j] = lam_new[1] - b_cav
                    delta_lam = max(
                        abs(lam_new[0] - lam[0]),
                        abs(lam_new[1] - lam[1]),
                    )
                    lam = lam_new
                    net.lam[:, 0] = lam
                else:
                    delta_lam = 0.0

                max_change = max(
                    max_change,
                    abs(m_new - m),
                    abs(v_new - v),
                    delta_lam,
                )
                means[i, j] = m_new
                variances[i, j] = v_new

    return RefreshReport(
        sites_visited=visited,
        sites_skipped=skipped,
        max_abs_change=max_change,
        runs=[(skipped, max_change)],
    )


# ------------------------------ the Python-float kernel that kernel.c replaced

# Until the Gamma chains of pbp.updates were compiled (kernel.c), they ran on
# Python floats: _likelihood_triple and _gamma_moments in the likelihood step,
# and _refresh_run, fed by the numpy plumbing of refresh_by_floats (then
# pbp.updates.ep_refresh_prior), in the EP refresh. They are kept verbatim,
# but for the stack's prior Gammas, now a (2, R) array of shapes and rates,
# as the reference kernel.c must match bit for bit.


def _gamma_moments(a, b, log_z, log_z1, log_z2):
    """Match the first two tilted moments of a Gamma(a, b) precision.

    With Z_k the normalizer at shape+k, the tilted moments are
    E[x]   = (Z1/Z)  * a/b
    E[x^2] = (Z2/Z)  * a*(a+1)/b^2
    and the matched Gamma follows from mean and variance. Returns the matched
    (shape, rate) on floats, or None when the result is invalid (non-positive
    or non-finite parameters): the update is then rejected.
    """
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


def _likelihood_triple(y: float, mz: float, vz: float, gam: tuple[float, float]):
    """log N(y | mz, rate/(shape+k-1) + vz) for k = 0, 1, 2 on floats, or None
    when the example is unusable and is skipped.

    The likelihood log-normalizers of a target y against output moments
    (mz, vz) at the three shapes _gamma_moments needs: the Gaussian collapse
    of the Student's t left by marginalizing the noise-precision
    Gamma(shape, rate). None for a shape at or below 1, a negative output
    variance, a collapsed variance that is not positive, a squared residual
    that overflows, or a non-finite value.
    """
    shape, rate = gam
    if shape <= 1.0 or vz < 0.0:
        return None
    var0 = rate / (shape - 1.0) + vz
    var1 = rate / (shape + 1.0 - 1.0) + vz
    var2 = rate / (shape + 2.0 - 1.0) + vz
    if not (var0 > 0.0 and var1 > 0.0 and var2 > 0.0):
        return None
    try:
        sq = (y - mz) ** 2
    except OverflowError:
        return None
    log = math.log
    triple = (
        -0.5 * (LOG_2PI + log(var0) + sq / var0),
        -0.5 * (LOG_2PI + log(var1) + sq / var1),
        -0.5 * (LOG_2PI + log(var2) + sq / var2),
    )
    return triple if all(map(math.isfinite, triple)) else None


def refresh_by_floats(stack: PosteriorStack, sites: np.ndarray) -> RefreshReport:
    """One EP sweep over the stored prior sites of every run of a stack, the
    (4, R, W) array of incorporate_all_prior_factors, updated in place.

    Per weight, in order: remove the site (natural-parameter subtraction),
    redo the tilted moment-match against the cavity, and store the new site.
    Cavities with negative Gaussian precision are skipped, and so are those
    whose refined variance is invalid; a cavity with exactly zero precision
    (no likelihood information yet) takes the closed-form flat limit. Gamma
    cavities whose shape would not support the Gaussian collapse leave the
    precision factor untouched.

    Only the running prior-precision Gamma makes a run's sweep sequential.
    The cavities and the write-back are numpy over all runs and weights, and
    one loop per run on Python floats does the rest (_refresh_run), because
    numpy's exp and log differ from math's in the last bit where its + - * /
    do not. Each run's result is bit for bit that of the per-weight loop. A
    zero weight variance raises NumericError; nothing is written when
    anything raises.
    """
    m, v = stack.means, stack.variances
    if not v.all():
        raise NumericError("zero weight variance: its prior-site cavity is undefined")
    p_site, eta_site, a_site, b_site = sites
    # Python floats give the same infs and NaNs without a warning. Where they
    # raise on a division by zero, NumericError is raised instead, here for a
    # zero weight variance and in _refresh_run for a zero prior variance; the
    # 1/0 cavity variance of a flat site goes unused.
    with np.errstate(all="ignore"):
        p_cav = 1.0 / v - p_site
        eta_cav = m / v - eta_site
        v_cav = 1.0 / p_cav
        m_cav = eta_cav * v_cav
        cavities = [p_cav, m_cav, v_cav, m_cav * m_cav, v_cav * v_cav, eta_cav]
    cavities = [x.tolist() for x in cavities]
    outputs = [x.tolist() for x in (m, v, a_site, b_site)]
    lams, skipped, max_delta = [], [], []
    for r, (shape, rate) in enumerate(stack.lam.T.tolist()):
        a, b, skips, delta = _refresh_run(
            shape, rate, zip(*(x[r] for x in cavities)), *(x[r] for x in outputs)
        )
        lams.append((a, b))
        skipped.append(skips)
        max_delta.append(delta)

    m_new, v_new, a_new, b_new = map(np.array, outputs)
    keep = np.ones(m.shape, dtype=bool)
    for r, skips in enumerate(skipped):
        keep[r, skips] = False
    with np.errstate(all="ignore"):
        np.copyto(p_site, 1.0 / v_new - p_cav, where=keep)
        np.copyto(eta_site, m_new / v_new - eta_cav, where=keep)
        change = np.fmax(np.abs(m_new - m), np.abs(v_new - v))
    # fmax skips NaN as Python's max does when it follows the running value;
    # the weights left as they were add changes of 0 or NaN.
    max_change = np.fmax.reduce(change, axis=-1, initial=0.0).tolist()
    np.copyto(m, m_new)
    np.copyto(v, v_new)
    np.copyto(a_site, a_new)
    np.copyto(b_site, b_new)
    stack.lam[...] = np.array(lams).T

    runs = [(len(s), max(c, d)) for s, c, d in zip(skipped, max_change, max_delta)]
    return RefreshReport(
        sites_visited=m.size,
        sites_skipped=sum(n for n, _ in runs),
        max_abs_change=max(c for _, c in runs),
        runs=runs,
    )


def _refresh_run(a, b, cavities, means, variances, site_shape, site_rate):
    """The sequential part of ep_refresh_prior for one run, on Python floats:
    every step that depends on the running prior-precision Gamma(a, b).

    cavities yields, per weight in order, the cavity's (precision, mean,
    variance, mean*mean, variance*variance, natural mean). The other lists
    hold, per weight, its mean and variance and its site's Gamma part (shape,
    rate), and take what the sweep changes. Returns the final (a, b), the
    indices of the sites skipped, and the largest change of the Gamma.
    """
    log, inf = math.log, math.inf
    skipped = []
    max_delta = 0.0
    for k, (p, m, v, m_sq, v_sq, eta) in enumerate(cavities):
        if p < 0.0:
            skipped.append(k)
            continue
        a_cav = a - site_shape[k]
        b_cav = b - site_rate[k]
        gamma_ok = a_cav > 1.0 and b_cav > 0.0
        a_fit, b_fit = (a_cav, b_cav) if gamma_ok else (a, b)
        prior_var = b_fit / (a_fit - 1.0)
        if p == 0.0:
            # The limit of the refinement for a flat cavity: the weight
            # collapses onto the collapsed prior keeping the natural mean eta,
            # and the Gamma stays at its cavity (all Z ratios -> 1).
            if prior_var == 0.0:
                raise NumericError("prior variance underflows to 0 at a flat prior site")
            m_new, v_new = prior_var * eta, prior_var
            # A prior shape fallen to 1 or below gives no variance.
            if not 0.0 < v_new < inf:
                skipped.append(k)
                continue
            means[k], variances[k] = m_new, v_new
            a_new, b_new = a_fit, b_fit
        else:
            # The Gaussian refinement with d log Z / dm and d log Z / dv of
            # log N(m | 0, b/(a-1) + v); m_sq and v_sq are m*m and v*v.
            total = prior_var + v
            dm = -m / total
            dv = 0.5 * (m_sq / (total * total) - 1.0 / total)
            m_new = m + v * dm
            v_new = v - v_sq * (dm * dm - 2.0 * dv)
            if not (0.0 < v_new < inf and -inf < m_new < inf):
                skipped.append(k)
                continue
            means[k], variances[k] = m_new, v_new
            if not gamma_ok:
                continue
            # The prior log-normalizers log N(m | 0, b/(a+k-1) + v), k = 0, 1, 2:
            # _likelihood_triple's formula for a target m against moments
            # (0, v), written out, as the call costs a sixth of a site and none
            # of its checks can fail for a_fit > 1, b_fit > 0 and v > 0. total
            # is its first variance, and the square stays libm's pow, which
            # differs from m * m in the last bit.
            sq = (m - 0.0) ** 2
            var1 = b_fit / (a_fit + 1.0 - 1.0) + v
            var2 = b_fit / (a_fit + 2.0 - 1.0) + v
            refined = _gamma_moments(
                a_fit,
                b_fit,
                -0.5 * (LOG_2PI + log(total) + sq / total),
                -0.5 * (LOG_2PI + log(var1) + sq / var1),
                -0.5 * (LOG_2PI + log(var2) + sq / var2),
            )
            a_new, b_new = refined or (a_fit, b_fit)
        if gamma_ok:
            site_shape[k] = a_new - a_cav
            site_rate[k] = b_new - b_cav
            # A NaN change is skipped, as Python's max does after the running value.
            delta = max(abs(a_new - a), abs(b_new - b))
            if delta > max_delta:
                max_delta = delta
            a, b = a_new, b_new
    return a, b, skipped, max_delta
