"""Forward propagation of activation means and variances through the network.

Weights are random under the factored posterior, so each layer's outputs are
random too. Every intermediate distribution is collapsed to independent
Gaussians by matching marginal means and variances; the rectifier output is a
mixture of a point mass at 0 and a truncated Gaussian, whose first two moments
have closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .gauss import LOG_2PI
from .posterior import LayerPosterior, NetworkPosterior, PosteriorStack

# Below this pre-activation variance the unit is treated as deterministic:
# the moment formulas divide by sqrt(v) and this is their exact limit.
DETERMINISTIC_VARIANCE = 1e-30

# Below this standardized mean the pdf/cdf ratio switches to its asymptotic
# series, which stays accurate where the direct ratio loses precision.
SERIES_THRESHOLD = -30.0


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
    """One layer's forward record: input, pre-activation and post-rectifier
    moments plus the rectifier intermediates (the output layer has neither),
    and the squared weight means the backward pass reuses."""

    z_in: MomentVector
    pre: MomentVector
    post: MomentVector | None
    relu: ReluAux | None
    means_sq: np.ndarray


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, exactly as used going forward.

    The output moments are floats for one network and arrays over the runs of
    a stack.
    """

    records: list[LayerTrace]
    output_mean: float | np.ndarray
    output_variance: float | np.ndarray


def forward_linear(
    layer: LayerPosterior, z: MomentVector, means_sq: np.ndarray | None = None
) -> MomentVector:
    """Marginal moments of W z / sqrt(cols) with W ~ posterior, z independent.

    The 1/sqrt(cols) factor keeps each unit's input scale independent of its
    fan-in. z holds rows of inputs, (*runs, rows, cols) when the layer carries
    a leading runs axis; means_sq is layer.means squared, when the caller
    already has it.
    """
    cols = layer.cols
    if len(z) != cols:
        raise ValueError(f"input length {len(z)} != layer fan-in {cols}")
    m, v = layer.means, layer.variances
    if means_sq is None:
        means_sq = m * m
    # One row is the BLAS gemv of W z; n rows are one gemm, which rounds
    # differently from n gemv calls, so the rows axis is never folded away.
    m_t, v_t = m.swapaxes(-1, -2), v.swapaxes(-1, -2)
    mean = (z.mean @ m_t) / math.sqrt(cols)
    variance = (
        z.variance @ means_sq.swapaxes(-1, -2) + (z.mean * z.mean) @ v_t + z.variance @ v_t
    ) / cols
    return MomentVector(mean, variance)


def relu_moments(a: MomentVector) -> tuple[MomentVector, ReluAux]:
    """Mean and variance of max(0, x) for x ~ N(a.mean, a.variance), per unit."""
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
    """Concatenate the constant bias unit (mean 1, variance 0) on the last axis."""
    shape = b.mean.shape[:-1] + (b.mean.shape[-1] + 1,)
    mean, variance = np.empty(shape), np.empty(shape)
    mean[..., :-1] = b.mean
    mean[..., -1] = 1.0
    variance[..., :-1] = b.variance
    variance[..., -1] = 0.0
    return MomentVector(mean, variance)


def forward_output_moments(
    net: NetworkPosterior | PosteriorStack, x: np.ndarray
) -> tuple[float | np.ndarray, float | np.ndarray, ForwardTrace | None]:
    """Propagate the moments of rows of inputs through every layer.

    x has shape (*runs, rows, d): (n, d) for one network and (R, n, d) for a
    PosteriorStack of R runs; the output mean and variance have shape
    (*runs, rows). A single input of shape (d,) gives float moments.

    The trace the backward pass needs is kept only with one row per run, the
    case an update uses; otherwise it is None.
    """
    x = np.asarray(x, dtype=float)
    runs = net.layers[0].means.shape[:-2]
    single = x.ndim == 1 and not runs
    if single:
        x = x[None, :]
    d = net.layer_sizes[0]
    if x.ndim != len(runs) + 2 or x.shape[:-2] != runs or x.shape[-1] != d:
        raise ValueError(f"input has shape {x.shape}, expected {runs + ('n', d)}")
    z = append_bias(MomentVector(x, np.zeros_like(x)))

    records = [] if x.shape[-2] == 1 else None
    last = len(net.layers) - 1
    for l, layer in enumerate(net.layers):
        means_sq = layer.means * layer.means
        a = forward_linear(layer, z, means_sq)
        b, aux = relu_moments(a) if l < last else (None, None)
        if records is not None:
            records.append(LayerTrace(z, a, b, aux, means_sq))
        if b is not None:
            z = append_bias(b)

    out_mean, out_var = a.mean[..., 0], a.variance[..., 0]
    if records is None:
        return out_mean, out_var, None
    row_mean, row_var = out_mean[..., 0], out_var[..., 0]
    if not runs:
        row_mean, row_var = float(row_mean), float(row_var)
    if single:
        out_mean, out_var = row_mean, row_var
    return out_mean, out_var, ForwardTrace(records, row_mean, row_var)
