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

from .forward import ForwardTrace, MomentVector, ReluAux, forward_trace
from .kernel import Refresh
from .posterior import LayerPosterior, PosteriorStack


@dataclass
class RefreshReport:
    """Outcome of one EP sweep over the stored prior sites of a stack: totals
    over its runs, and each run's (sites skipped, max abs change)."""

    sites_visited: int
    sites_skipped: int
    max_abs_change: float
    runs: list[tuple[int, float]]


@dataclass
class UpdateOutcome:
    """Outcome of incorporating one likelihood factor per run of a stack:
    each field is an array with one entry per run."""

    skipped: np.ndarray
    undo_count: np.ndarray
    weight_updates: np.ndarray


def incorporate_all_prior_factors(stack: PosteriorStack) -> np.ndarray:
    """ADF-incorporate every weight's prior factor into a stack in the uniform
    start, in place, and return the prior sites of every run.

    The sites are one (4, R, W) array: per weight, in PosteriorStack order,
    the site's precision and precision x mean (a Gaussian in natural
    parameters, so the cavity is a subtraction) and its additive Gamma
    contribution to the prior precision (shape, rate). Every marginal is flat
    (infinite variance), so each factor takes the closed-form limit of the
    refinement, the same for every weight of a run: the weight collapses onto
    the collapsed Gaussian prior, mean 0, variance b/(a-1) of the run's
    prior-precision Gamma(a, b); its site is that prior in natural
    parameters; and the Gamma is untouched (all Z ratios -> 1). Raises
    ValueError on any other state, and ZeroDivisionError, having written
    nothing, where a Gamma shape of 1 or a prior variance of 0 divides by 0.
    """
    if not np.isinf(stack.variances).all():
        raise ValueError("the prior factors are incorporated once, into the uniform state")
    a, b = stack.lam
    with np.errstate(all="ignore"):
        sigma2 = b / (a - 1.0)
        mean = sigma2 * 0.0
        site = (1.0 / sigma2 - 0.0, mean / sigma2 - 0.0, a - a, b - b)
    if not ((a - 1.0).all() and sigma2.all()):
        raise ZeroDivisionError("float division by zero")
    sites = np.empty((4, *stack.means.shape))
    for rows, value in zip(sites, site):
        rows[...] = value[:, None]
    stack.means[...] = mean[:, None]
    stack.variances[...] = sigma2[:, None]
    return sites


def backward_gradients(stack: PosteriorStack, trace: ForwardTrace, y: np.ndarray) -> None:
    """Gradients of the likelihood log Z w.r.t. every weight mean and variance.

    Seeds with d log Z / d(output moments) and walks the trace in reverse,
    applying the exact partial derivatives of the linear and rectifier moment
    maps as implemented in the forward pass. The trace is the stack's last
    forward_trace and y holds one target per run. The gradients go
    into the stack's workspace: flat over all weights in d_means and
    d_variances, with per-layer (R, rows, cols) views.
    """
    ws = stack.workspace
    noise = stack.gamma[1] / (stack.gamma[0] - 1.0)
    total = noise + trace.output_variance
    diff = y - trace.output_mean
    # Shape (runs, 1 row, 1 output unit), as the forward pass's moments.
    dma = (diff / total)[:, None, None]
    dva = (0.5 * (diff * diff / (total * total) - 1.0 / total))[:, None, None]

    for l in range(len(stack.layers) - 1, -1, -1):
        rec = trace.records[l]
        d_inputs = _linear_backward(
            stack.layers[l], rec.z_in, dma, dva, rec.means_sq,
            ws.d_mean_views[l], ws.d_variance_views[l], inputs=l > 0,
        )
        if l > 0:
            # Drop the appended bias slot; its moments are constants.
            dmz, dvz = d_inputs
            prev = trace.records[l - 1]
            dma, dva = _relu_backward(prev.pre, prev.relu, dmz[..., :-1], dvz[..., :-1])


def _linear_backward(
    layer: LayerPosterior, z: MomentVector, dma, dva, means_sq, dM, dV, inputs=True
):
    """Backward through ma = M mz / sqrt(c), va = [(M*M) vz + V (mz^2 + vz)] / c.

    z and the output gradients hold one row (per run); means_sq is M*M as the
    forward pass computed it. The weight gradients are written into dM and dV;
    the input gradients (dmz, dvz) are returned when inputs is true, and
    otherwise not computed (the input layer's would go unused).
    """
    c = layer.cols
    inv_c = 1.0 / c
    inv_s = 1.0 / math.sqrt(c)
    m, v = layer.means, layer.variances
    mz, vz = z.mean, z.variance
    dma_col, dva_col = dma.swapaxes(-1, -2), dva.swapaxes(-1, -2)

    np.add(dma_col * mz * inv_s, 2.0 * inv_c * m * (dva_col * vz), out=dM)
    np.multiply(inv_c, dva_col * (mz * mz + vz), out=dV)
    if not inputs:
        return None
    dmz = inv_s * (dma @ m) + 2.0 * inv_c * mz * (dva @ v)
    dvz = inv_c * (dva @ (means_sq + v))
    return dmz, dvz


def _relu_backward(pre: MomentVector, aux: ReluAux, dmb, dvb):
    """Backward through the rectifier moment map, branch for branch.

    Differentiates the forward expressions exactly, including through the
    asymptotic series for the pdf/cdf ratio where that branch was taken, so
    finite differences of the implemented forward pass agree everywhere. The
    intermediates the forward pass already formed come from aux.
    """
    v_safe = aux.v_safe
    s = aux.sqrt_v
    alpha = aux.alpha
    g = aux.ratio
    cdf, cdf_neg, pdf = aux.cdf, aux.cdf_neg, aux.pdf
    vp = aux.vprime

    dg_dalpha = -g * aux.ratio_alpha
    if aux.series is not None:
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

    mb = aux.mean_pos
    dmb_dm = dcdf_dm * vp + cdf * dvp_dm
    dmb_dv = dcdf_dv * vp + cdf * dvp_dv

    u = aux.u
    du_dalpha = -dg_dalpha * (2.0 * g + alpha) - g

    # vb = mb * vp * Phi(-alpha) + Phi(alpha) * v * u
    mb_vp_pdf = aux.mean_vprime * pdf
    cdf_v_du = aux.cdf_v * du_dalpha
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

    det = aux.deterministic
    if det is not None:
        # Deterministic units: mb = max(0, m), vb = 0.
        dma = np.where(det, dmb * (pre.mean > 0.0), dma)
        dva = np.where(det, 0.0, dva)
    return dma, dva


def incorporate_likelihood_factors(
    stack: PosteriorStack, x: np.ndarray, y: np.ndarray
) -> UpdateOutcome:
    """Fold one observation per run into a stack: run r takes (x[r], y[r]).

    One probabilistic forward pass, one reverse gradient sweep, then the
    Gaussian refinement of every weight, in place, and the tilted-moment
    update of each run's noise-precision Gamma. Weights whose refined
    variance would be invalid are rolled back individually; a run whose log Z
    is not finite skips the example and keeps its weights. A run's arithmetic
    is that of a stack of that run alone, bit for bit.

    The log Z and Gamma step is kernel.c's noise_step, before the gradient
    sweep, whose noise variances come from the Gammas before the update. It
    raises ZeroDivisionError, having written nothing, where the sweep or the
    Gamma match would divide by 0 (a Gamma shape of 1 or a rate of 0).
    """
    trace = forward_trace(stack, x)
    noise = stack.workspace.noise
    noise.y[...] = y
    noise.mz[...] = trace.output_mean
    noise.vz[...] = trace.output_variance
    skips = noise()
    skipped = noise.skipped.copy()
    if skips == len(skipped):
        none = np.zeros(len(skipped), dtype=int)
        return UpdateOutcome(skipped, none, none.copy())

    hold = skips > 0
    if hold:
        # The skipping runs' gradients are discarded; a zero residual keeps
        # them finite where an overflowing one would fill them with inf and NaN.
        y = np.where(skipped, trace.output_mean, y)
    backward_gradients(stack, trace, y)

    # One pass over all weights of all runs. The validity check is four
    # reductions; the mask of weights to roll back, and its per-run counts,
    # are formed only when it fails or some run keeps its weights.
    ws = stack.workspace
    m, v, dM, dV = stack.means, stack.variances, ws.d_means, ws.d_variances
    m_new = m + v * dM
    v_new = v - v * v * (dM * dM - 2.0 * dV)
    minimum, maximum = np.minimum.reduce, np.maximum.reduce
    if (
        not hold
        and minimum(v_new, axis=None) > 0.0
        and maximum(v_new, axis=None) < math.inf
        and minimum(m_new, axis=None) > -math.inf
        and maximum(m_new, axis=None) < math.inf
    ):
        np.copyto(m, m_new)
        np.copyto(v, v_new)
        undo = 0
    else:
        bad = ~(v_new > 0.0) | ~np.isfinite(v_new) | ~np.isfinite(m_new)
        undo = bad.sum(axis=-1)
        if hold:
            bad |= skipped[:, None]
        keep = ~bad
        np.copyto(m, m_new, where=keep)
        np.copyto(v, v_new, where=keep)

    np.copyto(stack.gamma, noise.gamma_next)
    return UpdateOutcome(
        skipped=skipped,
        undo_count=np.where(skipped, 0, undo),
        weight_updates=np.where(skipped, 0, stack.n_weights()),
    )


def ep_refresh_prior(stack: PosteriorStack, sites: np.ndarray) -> RefreshReport:
    """One EP sweep over the stored prior sites of every run of a stack, the
    (4, R, W) array of incorporate_all_prior_factors, updated in place.

    Per weight, in order: remove the site (natural-parameter subtraction),
    redo the tilted moment-match against the cavity, and store the new site.
    Cavities with negative Gaussian precision are skipped, and so are those
    whose refined variance is invalid; a cavity with exactly zero precision
    (no likelihood information yet) takes the closed-form flat limit. Gamma
    cavities whose shape would not support the Gaussian collapse leave the
    precision factor untouched.

    The running prior-precision Gamma makes a run's sweep sequential; the
    sweep is kernel.c's ep_refresh, bound to the stack and sites on the first
    call with them. A zero weight variance, or a zero prior variance at a flat
    site, raises NumericError; nothing is written when anything raises.
    """
    refresh = stack.refresh
    if refresh is None or refresh.sites is not sites:
        refresh = stack.refresh = Refresh(stack.means, stack.variances, stack.lam, sites)
    refresh()
    skipped, change = refresh.skipped.tolist(), refresh.change.tolist()
    return RefreshReport(
        sites_visited=stack.means.size,
        sites_skipped=sum(skipped),
        max_abs_change=max(change),
        runs=list(zip(skipped, change)),
    )
