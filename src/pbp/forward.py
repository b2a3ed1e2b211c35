"""Forward propagation of activation means and variances through the network.

Weights are random under the factored posterior, so each layer's outputs are
random too. Every intermediate distribution is collapsed to independent
Gaussians by matching marginal means and variances; the rectifier output is a
mixture of a point mass at 0 and a truncated Gaussian, whose first two moments
have closed forms.

A rows pass (forward_output_moments) runs its elementwise arithmetic in
kernel.c around numpy's matmuls: a layer's moments (kernel.LinearForward)
and its whole rectifier in one call (kernel.Rectifier), which calls scipy's
log_ndtr and numpy's exp and power loops from there. The update's one-row
pass runs in kernel.c with its matmuls too (see kernel.Step): forward_trace
is one call for every layer, and training folds a whole epoch of examples
into one call (updates.incorporate_likelihood_factors).
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass

import numpy as np

from .kernel import LinearForward, Rectifier, Step, bias_extended, squared
from .posterior import LayerPosterior, PosteriorStack

# Below this pre-activation variance the unit is treated as deterministic:
# the moment formulas divide by sqrt(v) and this is their exact limit.
DETERMINISTIC_VARIANCE = 1e-30

# Below this standardized mean the pdf/cdf ratio switches to its asymptotic
# series, which stays accurate where the direct ratio loses precision.
SERIES_THRESHOLD = -30.0

# Rows per block of a large forward pass (see forward_output_moments).
BLOCK_ROWS = 512


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


def _bias_buffers(widths, rows_shape):
    """Bias-extended input moments of widths units for rows of rows_shape, with
    the bias unit (mean 1, variance 0) in place, and views of their unit slots:
    outputs[0] takes the inputs x (variance 0), outputs[l] the rectifier
    output of layer l - 1."""
    inputs, outputs = [], []
    for units in widths:
        z = bias_extended(rows_shape, units)
        inputs.append(MomentVector(*z))
        outputs.append(MomentVector(*z[..., :-1]))
    return inputs, outputs


def forward_linear(
    layer: LayerPosterior, z: MomentVector, transposed: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> MomentVector:
    """Marginal moments of W z / sqrt(cols) with W ~ posterior, z independent:

      mean = (z.mean @ M^T) / sqrt(cols)
      variance = (z.variance @ (M*M)^T + (z.mean * z.mean) @ V^T + z.variance @ V^T) / cols

    The 1/sqrt(cols) factor keeps each unit's input scale independent of its
    fan-in. z holds rows of inputs, (*runs, rows, cols) when the layer carries
    a leading runs axis. transposed is _transposed of the layer, which the
    caller keeps. The moments go to new arrays, through a
    kernel.LinearForward bound for this call.
    """
    cols = layer.cols
    if len(z) != cols:
        raise ValueError(f"input length {len(z)} != layer fan-in {cols}")
    kernel = LinearForward(np.ascontiguousarray(z.mean, dtype=float), layer.rows)
    # One row is the BLAS gemv of W z; n rows are one gemm, which rounds
    # differently from n gemv calls, so the rows axis is never folded away.
    m_t, v_t, means_sq_t = transposed
    products = kernel.products
    kernel.square()
    np.matmul(z.mean, m_t, out=products[0])
    np.matmul(z.variance, means_sq_t, out=products[1])
    np.matmul(kernel.zm_sq, v_t, out=products[2])
    np.matmul(z.variance, v_t, out=products[3])
    kernel.moments()
    return MomentVector(*kernel.out)


def _transposed(layer: LayerPosterior, means_sq: np.ndarray):
    """The layer's means, variances and squared means (means_sq), each as a
    transposed view, (*runs, cols, rows)."""
    return (
        layer.means.swapaxes(-1, -2),
        layer.variances.swapaxes(-1, -2),
        means_sq.swapaxes(-1, -2),
    )


def relu_moments(a: MomentVector, out: MomentVector | None = None) -> tuple[MomentVector, Rectifier]:
    """Mean and variance of max(0, x) for x ~ N(a.mean, a.variance), per unit,
    and the rectifier whose buffers hold the intermediates.

    out, when given, receives the moments and is returned; its rows of units
    must be evenly spaced, as in the unit slots of the next layer's
    bias-extended input. The intermediates go to the buffers of a
    kernel.Rectifier bound to a's moments, made C-contiguous floats, and out
    for this call, as a rows pass binds one for each item.

    kernel.c does the arithmetic, in one call.
    """
    if out is None:
        out = MomentVector(np.empty(a.mean.shape), np.empty(a.mean.shape))
    m = np.ascontiguousarray(a.mean, dtype=float)
    v = np.ascontiguousarray(a.variance, dtype=float)
    rectifier = Rectifier(m, v, out.mean, out.variance, DETERMINISTIC_VARIANCE, SERIES_THRESHOLD)
    rectifier()
    return out, rectifier


def forward_output_moments(stack: PosteriorStack, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Propagate the moments of rows of inputs through every layer of every
    run of a stack.

    x has shape (R, n, d) for a PosteriorStack of R runs: n rows per run; the
    output mean and variance have shape (R, n). No trace is kept; an update
    takes forward_trace.

    The rows go through in work items (see _work_items) of one row block and
    a group of runs, so the working set is bounded by one item whatever the
    row count. From 2 * BLOCK_ROWS rows on, the blocks start at multiples of
    BLOCK_ROWS and the last takes the remainder: every gemm sees at least
    BLOCK_ROWS rows and every row keeps its offset mod 4, which keeps the
    kernels, and so the bits, of an unblocked pass. No item reads another's
    rows or runs, so from 2 * BLOCK_ROWS rows over all runs on, the items run
    on every usable CPU (see _run_items), bit for bit as in a serial pass.
    """
    x = np.asarray(x, dtype=float)
    runs, d = stack.means.shape[0], stack.layer_sizes[0]
    if x.ndim != 3 or x.shape[0] != runs or x.shape[-1] != d:
        raise ValueError(f"input has shape {x.shape}, expected {(runs, 'n', d)}")

    n = x.shape[1]
    transposed = [_transposed(layer, squared(layer.means)) for layer in stack.layers]
    out_mean, out_var = np.empty((runs, n)), np.empty((runs, n))

    def forward_item(item):
        group, rows = item
        block = x[group, rows]
        inputs, outputs = _bias_buffers(stack.layer_sizes[:-1], block.shape[:-1])
        item_transposed = [(m[group], v[group], s[group]) for m, v, s in transposed]
        a = _propagate(stack.layers, inputs, outputs, block, item_transposed)
        out_mean[group, rows] = a.mean[..., 0]
        out_var[group, rows] = a.variance[..., 0]

    _run_items(forward_item, _work_items(runs, n), runs * n >= 2 * BLOCK_ROWS)
    return out_mean, out_var


def forward_trace(stack: PosteriorStack, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The forward pass of one input row per run, x of shape (R, d), whose
    intermediates the backward pass reads; its (R,) output means and
    variances, which are the noise step's mz and vz.

    It runs in the stack's workspace (see workspace) in one kernel.c call,
    and its intermediates stay there until the stack's next step.
    """
    x = np.asarray(x, dtype=float)
    expected = stack.means.shape[:-1] + (stack.layer_sizes[0],)
    if x.shape != expected:
        raise ValueError(f"input has shape {x.shape}, expected {expected}")
    step = workspace(stack)
    np.copyto(step.x, x[:, None, :])
    step.forward()
    return step.noise.mz, step.noise.vz


def workspace(stack: PosteriorStack) -> Step:
    """The stack's likelihood step, a kernel.Step that the first call builds
    and keeps on the stack."""
    if stack.workspace is None:
        stack.workspace = Step(
            stack.means, stack.variances, stack.gamma, stack.layer_sizes,
            DETERMINISTIC_VARIANCE, SERIES_THRESHOLD,
        )
    return stack.workspace


def _work_items(runs: int, n: int) -> list[tuple[slice, slice]]:
    """The (runs, rows) slices of the items of a pass of n rows per run: the
    row blocks of forward_output_moments, and contiguous groups of runs of
    about BLOCK_ROWS rows between them."""
    starts = range(0, max(n - BLOCK_ROWS, 0) + 1, BLOCK_ROWS)
    blocks = [slice(start, stop) for start, stop in zip(starts, [*starts[1:], n])]
    group = max(1, BLOCK_ROWS // max(blocks[0].stop, 1))
    return [(slice(r, r + group), rows) for r in range(0, runs, group) for rows in blocks]


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_items(work, items: list, parallel: bool) -> None:
    """work(item) for every item: on the calling thread alone or, when
    parallel, on it and on helper threads, one thread per usable CPU at most.

    Each thread takes the next item until none is left. The helpers run in
    copies of the caller's context, so numpy's error state holds there too.
    After the first exception no thread takes another item, and it is raised
    here once every helper has ended.
    """
    helpers = min(usable_cpus(), len(items)) - 1 if parallel else 0
    if helpers <= 0:
        for item in items:
            work(item)
        return

    pending = iter(items)
    lock = threading.Lock()
    errors = []

    def take():
        while True:
            with lock:
                item = None if errors else next(pending, None)
            if item is None:
                return
            try:
                work(item)
            except BaseException as exc:  # raised in the caller below
                with lock:
                    errors.append(exc)
                return

    threads = []
    try:
        for _ in range(helpers):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(take,))
            try:
                thread.start()
            except RuntimeError:  # no thread to be had: the others take its share
                break
            threads.append(thread)
        take()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _propagate(layers, inputs, outputs, x, transposed) -> MomentVector:
    """The output layer's pre-activation moments for rows x, through the
    bias-extended input buffers of _bias_buffers and each layer's transposed
    means, variances and squared means; each layer binds its own kernels,
    each rectifier to the whole of its pass."""
    np.copyto(outputs[0].mean, x)
    last = len(layers) - 1
    for l, layer in enumerate(layers):
        a = forward_linear(layer, inputs[l], transposed[l])
        if l < last:
            relu_moments(a, outputs[l + 1])
    return a
