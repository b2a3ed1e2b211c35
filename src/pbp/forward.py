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
    """Paired mean/variance vectors for one layer's random activations.

    The last axis indexes units; a leading axis, when present, indexes
    independent runs.
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


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x over the last two axes of a and the last axis of x, per run."""
    return np.matmul(a, x[..., None])[..., 0]


def vecmat(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """x @ a (that is, a.T @ x) per run; same BLAS call as the 2-D form."""
    return np.matmul(x[..., None, :], a)[..., 0, :]


def forward_linear(
    layer: LayerPosterior, z: MomentVector, means_sq: np.ndarray | None = None
) -> MomentVector:
    """Marginal moments of W z / sqrt(cols) with W ~ posterior, z independent.

    The 1/sqrt(cols) factor keeps each unit's input scale independent of its
    fan-in. The layer may carry a leading runs axis, with z then one input per
    run; means_sq is layer.means squared, when the caller already has it.
    """
    cols = layer.cols
    if len(z) != cols:
        raise ValueError(f"input length {len(z)} != layer fan-in {cols}")
    m, v = layer.means, layer.variances
    if means_sq is None:
        means_sq = m * m
    mean = matvec(m, z.mean) / math.sqrt(cols)
    variance = (
        matvec(means_sq, z.variance) + matvec(v, z.mean * z.mean) + matvec(v, z.variance)
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
) -> tuple[float, float, ForwardTrace]:
    """Propagate one input's moments through every layer.

    Returns the scalar output mean/variance and the full trace needed for the
    backward gradient pass. For a PosteriorStack of R runs, x holds one input
    per run, shape (R, d), and the output moments are arrays of length R.
    """
    x = np.asarray(x, dtype=float)
    expected = net.layers[0].means.shape[:-2] + (net.layer_sizes[0],)
    if x.shape != expected:
        raise ValueError(f"input has shape {x.shape}, expected {expected}")
    z = append_bias(MomentVector(x, np.zeros_like(x)))

    records = []
    last = len(net.layers) - 1
    for l, layer in enumerate(net.layers):
        means_sq = layer.means * layer.means
        a = forward_linear(layer, z, means_sq)
        if l < last:
            b, aux = relu_moments(a)
            records.append(LayerTrace(z, a, b, aux, means_sq))
            z = append_bias(b)
        else:
            records.append(LayerTrace(z, a, None, None, means_sq))

    out_mean, out_var = a.mean[..., 0], a.variance[..., 0]
    if out_mean.ndim == 0:
        out_mean, out_var = float(out_mean), float(out_var)
    return out_mean, out_var, ForwardTrace(records, out_mean, out_var)


def forward_output_moments_batch(
    net: NetworkPosterior, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Output moments for a batch of inputs (rows of X). No trace is kept."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.layer_sizes[0]:
        raise ValueError(
            f"batch has shape {X.shape}, expected (n, {net.layer_sizes[0]})"
        )
    n = X.shape[0]
    mz = np.hstack([X, np.ones((n, 1))])
    vz = np.zeros_like(mz)

    last = len(net.layers) - 1
    for l, layer in enumerate(net.layers):
        m, v = layer.means, layer.variances
        cols = layer.cols
        ma = (mz @ m.T) / math.sqrt(cols)
        va = (vz @ (m * m).T + (mz * mz) @ v.T + vz @ v.T) / cols
        if l < last:
            b, _ = relu_moments(MomentVector(ma, va))
            mz = np.hstack([b.mean, np.ones((n, 1))])
            vz = np.hstack([b.variance, np.zeros((n, 1))])
    return ma[:, 0], va[:, 0]
