"""The per-weight prior, EP and Gamma code that preceded the kernel of
`pbp.updates`, kept as the reference its tests compare against: verbatim, but
for the one-run entry its RefreshReport now carries.

It works on one `NetworkPosterior` and its `PriorSiteStore`, weight by weight
in row-major order, on Python floats: the ADF incorporation of each weight's
prior factor from any state (`incorporate_prior_factor`,
`incorporate_all_prior_factors`) and its Gaussian refinement
(`gaussian_refine`), the EP refresh of the stored sites
(`ep_refresh_prior`), the Gamma moment match (`gamma_refine`) and the
likelihood log-Z triple (`_likelihood_triple`). Where it aborts, it leaves
the weights and sites it had reached changed.
"""

import math
from dataclasses import dataclass

from pbp.gauss import gaussian_log_density
from pbp.posterior import GammaDist, NetworkPosterior
from pbp.updates import NegativeVarianceError, PriorSiteStore, RefreshReport


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
        sites_visited=visited,
        sites_skipped=skipped,
        max_abs_change=max_change,
        runs=[(skipped, max_change)],
    )
