"""The per-network likelihood update as it stood before stacks held flat weight
buffers and a reusable workspace, kept verbatim as a reference.

One row's forward trace, the reverse gradient sweep and the per-layer
refinement of a stack of one, with the rectifier intermediates recomputed
where the engine now carries them. `test_batched_engine.reference_train`
trains through `incorporate_likelihood_factor` here, so the engine's step is
compared with an independent copy rather than with itself. The scalar log-Z
and Gamma kernel is imported: it runs on Python floats and is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from pbp.kernel import DETERMINISTIC_VARIANCE, LOG_2PI, SERIES_THRESHOLD
from pbp.posterior import PosteriorStack
from pbp.updates import UpdateOutcome
from reference_prior import _gamma_moments, _likelihood_triple, weights


@dataclass
class MomentVector:
    """Paired mean/variance arrays for one layer's random activations.

    Shape (*runs, rows, units): the last axis indexes units, the one before it
    input rows, and a leading axis, when present, independent runs.
    """

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.variance.shape:
            raise ValueError("mean and variance must have equal length")

    def __len__(self) -> int:
        return self.mean.shape[-1]


@dataclass
class ReluAux:
    """Per-unit intermediates of relu_moments, reused by the backward pass."""

    alpha: np.ndarray       # m / sqrt(v)
    ratio: np.ndarray       # phi(alpha) / Phi(alpha), series in the far tail
    vprime: np.ndarray      # conditional mean of the positive branch
    cdf: np.ndarray         # Phi(alpha)
    cdf_neg: np.ndarray     # Phi(-alpha)
    pdf: np.ndarray         # phi(alpha)
    sqrt_v: np.ndarray
    deterministic: np.ndarray  # bool mask: variance below the exact-limit cutoff
    series: np.ndarray         # bool mask: asymptotic-series branch used


@dataclass
class LayerTrace:
    z_in: MomentVector
    pre: MomentVector
    post: MomentVector | None
    relu: ReluAux | None
    means_sq: np.ndarray


@dataclass
class ForwardTrace:
    records: list[LayerTrace]
    output_mean: float
    output_variance: float


@dataclass
class GradientStore:
    """Per-layer gradients of log Z w.r.t. weight means and variances."""

    d_means: list[np.ndarray]
    d_variances: list[np.ndarray]


def forward_linear(
    m: np.ndarray, v: np.ndarray, z: MomentVector, means_sq: np.ndarray | None = None
) -> MomentVector:
    """The pre-activation moments of a layer of weight means m and variances
    v, (*runs, rows, cols), for the bias-extended input moments z."""
    cols = m.shape[-1]
    if len(z) != cols:
        raise ValueError(f"input length {len(z)} != layer fan-in {cols}")
    if means_sq is None:
        means_sq = m * m
    m_t, v_t = m.swapaxes(-1, -2), v.swapaxes(-1, -2)
    mean = (z.mean @ m_t) / math.sqrt(cols)
    variance = (
        z.variance @ means_sq.swapaxes(-1, -2) + (z.mean * z.mean) @ v_t + z.variance @ v_t
    ) / cols
    return MomentVector(mean, variance)


def relu_moments(a: MomentVector) -> tuple[MomentVector, ReluAux]:
    m, v = a.mean, a.variance
    if np.any(v < 0.0):
        raise ValueError("negative pre-activation variance (upstream bug)")

    det = v < DETERMINISTIC_VARIANCE
    any_det = det.any()
    v_safe = np.where(det, 1.0, v) if any_det else v
    sqrt_v = np.sqrt(v_safe)
    alpha = m / sqrt_v

    log_cdf = log_ndtr(alpha)
    cdf = np.exp(log_cdf)
    cdf_neg = np.exp(log_ndtr(-alpha))
    log_pdf = -0.5 * (alpha * alpha + LOG_2PI)
    pdf = np.exp(log_pdf)

    series = alpha < SERIES_THRESHOLD
    ratio = np.exp(log_pdf - log_cdf)
    if series.any():
        alpha_s = np.where(series, alpha, -1.0)  # keeps the unused branch finite
        ratio = np.where(series, -alpha_s - 1.0 / alpha_s + 2.0 / alpha_s**3, ratio)

    vprime = m + sqrt_v * ratio
    mean_b = cdf * vprime
    var_b = mean_b * vprime * cdf_neg + cdf * v_safe * (1.0 - ratio * (ratio + alpha))
    var_b = np.maximum(var_b, 0.0)

    if any_det:
        mean_b = np.where(det, np.maximum(m, 0.0), mean_b)
        var_b = np.where(det, 0.0, var_b)

    aux = ReluAux(
        alpha=alpha,
        ratio=ratio,
        vprime=vprime,
        cdf=cdf,
        cdf_neg=cdf_neg,
        pdf=pdf,
        sqrt_v=sqrt_v,
        deterministic=det,
        series=series,
    )
    return MomentVector(mean_b, var_b), aux


def append_bias(b: MomentVector) -> MomentVector:
    shape = b.mean.shape[:-1] + (b.mean.shape[-1] + 1,)
    mean, variance = np.empty(shape), np.empty(shape)
    mean[..., :-1] = b.mean
    mean[..., -1] = 1.0
    variance[..., :-1] = b.variance
    variance[..., -1] = 0.0
    return MomentVector(mean, variance)


def forward_trace(net: PosteriorStack, x: np.ndarray):
    """Output moments of one input x of shape (d,), as floats, and its trace."""
    x = np.asarray(x, dtype=float)[None, :]
    means, variances = weights(net)
    means_sq = [m * m for m in means]
    records = []
    z = append_bias(MomentVector(x, np.zeros_like(x)))
    last = len(means) - 1
    for l, (m, v) in enumerate(zip(means, variances)):
        a = forward_linear(m, v, z, means_sq[l])
        b, aux = relu_moments(a) if l < last else (None, None)
        records.append(LayerTrace(z, a, b, aux, means_sq[l]))
        if b is not None:
            z = append_bias(b)
    out_mean, out_var = float(a.mean[0, 0]), float(a.variance[0, 0])
    return out_mean, out_var, ForwardTrace(records, out_mean, out_var)


def backward_gradients(net: PosteriorStack, trace: ForwardTrace, y: float) -> GradientStore:
    shape, rate = net.gamma[:, 0].tolist()
    noise = rate / (shape - 1.0)
    total = noise + trace.output_variance
    diff = y - trace.output_mean
    # Shape (*runs, 1 row, 1 output unit), as the forward pass's moments.
    dma = np.asarray(diff / total)[..., None, None]
    dva = np.asarray(0.5 * (diff * diff / (total * total) - 1.0 / total))[..., None, None]

    means, variances = weights(net)
    n_layers = len(means)
    d_means: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
    d_variances: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]

    for l in range(n_layers - 1, -1, -1):
        rec = trace.records[l]
        dM, dV, dmz, dvz = _linear_backward(
            means[l], variances[l], rec.z_in, dma, dva, rec.means_sq
        )
        d_means[l] = dM
        d_variances[l] = dV
        if l > 0:
            # Drop the appended bias slot; its moments are constants.
            dmb, dvb = dmz[..., :-1], dvz[..., :-1]
            prev = trace.records[l - 1]
            dma, dva = _relu_backward(prev.pre, prev.relu, dmb, dvb)

    return GradientStore(d_means, d_variances)


def _linear_backward(m, v, z: MomentVector, dma, dva, means_sq):
    c = m.shape[-1]
    inv_c = 1.0 / c
    inv_s = 1.0 / math.sqrt(c)
    mz, vz = z.mean, z.variance
    dma_col, dva_col = dma.swapaxes(-1, -2), dva.swapaxes(-1, -2)

    dM = dma_col * mz * inv_s + 2.0 * inv_c * m * (dva_col * vz)
    dV = inv_c * (dva_col * (mz * mz + vz))
    dmz = inv_s * (dma @ m) + 2.0 * inv_c * mz * (dva @ v)
    dvz = inv_c * (dva @ (means_sq + v))
    return dM, dV, dmz, dvz


def _relu_backward(pre: MomentVector, aux: ReluAux, dmb, dvb):
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


def refine(m, v, dM, dV):
    """The Gaussian refinement of a layer's weights (m, v), (*runs, rows,
    cols), by the gradients of log Z (dM, dV): the new means and variances,
    each weight kept where its new variance is not positive or either is not
    finite, and the number of weights kept so per run."""
    m_new = m + v * dM
    v_new = v - v * v * (dM * dM - 2.0 * dV)
    bad = ~(v_new > 0.0) | ~np.isfinite(v_new) | ~np.isfinite(m_new)
    if bad.any():
        return np.where(bad, m, m_new), np.where(bad, v, v_new), bad.sum(axis=(-2, -1))
    return m_new, v_new, bad.sum(axis=(-2, -1))


def _incorporate(net: PosteriorStack, x, y, gammas: list[tuple[float, float]]):
    mz, vz, trace = forward_trace(net, x)
    triples = [
        _likelihood_triple(*args)
        for args in zip(np.ravel(y).tolist(), np.ravel(mz).tolist(), np.ravel(vz).tolist(), gammas)
    ]
    skipped = np.array([t is None for t in triples])
    if skipped.all():
        return skipped, 0

    grads = backward_gradients(net, trace, y)

    undo = 0
    for m, v, dM, dV in zip(*weights(net), grads.d_means, grads.d_variances):
        m[...], v[...], bad = refine(m, v, dM, dV)
        undo = undo + bad

    for r, triple in enumerate(triples):
        if triple is not None:
            refined = _gamma_moments(*gammas[r], *triple)
            if refined is not None:
                gammas[r] = refined
    return skipped, undo


def incorporate_likelihood_factor(
    net: PosteriorStack, x: np.ndarray, y: float
) -> UpdateOutcome:
    """Fold one observation into the posterior, a stack of one."""
    gammas = [tuple(net.gamma[:, 0].tolist())]
    skipped, undo = _incorporate(net, x, y, gammas)
    net.gamma[:, 0] = gammas[0]
    if skipped[0]:
        return UpdateOutcome(skipped=True, undo_count=0, weight_updates=0)
    return UpdateOutcome(skipped=False, undo_count=int(undo), weight_updates=net.means.shape[-1])
