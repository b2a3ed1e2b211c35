"""Forward propagation of activation means and variances through the network.

Weights are random under the factored posterior, so each layer's outputs are
random too. Every intermediate distribution is collapsed to independent
Gaussians by matching marginal means and variances; the rectifier output is a
mixture of a point mass at 0 and a truncated Gaussian, whose first two moments
have closed forms.

The elementwise arithmetic runs in kernel.c (see kernel.LinearForward and
kernel.Rectifier); numpy runs the matmuls, scipy's log_ndtr and numpy's exp,
and in the rectifier's far tail numpy's power.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .kernel import (
    LinearBackward,
    LinearForward,
    NoiseStep,
    OutputGradients,
    Rectifier,
    Refine,
    Square,
    squared,
)
from .posterior import LayerPosterior, PosteriorStack, flat_layers, layer_views

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


class Workspace:
    """The buffers of a stack's forward_trace and of its backward pass, and
    the kernels bound to them.

    Built on flat (*runs, W) weight buffers and their layer views: the squared
    means, the gradients of log Z (filled by the backward pass, flat with
    per-layer views), every layer's bias-extended input, into which the
    previous rectifier writes, and the compiled noise-Gamma step bound to the
    stack's (2, R) noise Gammas `gamma`, whose output moments are the output
    layer's. Per layer: the forward kernels (`linear`, and for a hidden layer
    `rectifiers`), the gradients w.r.t. its pre-activation moments (`d_pre`,
    (2, *runs, 1, units)) and its reverse sweep (`linear_backward`); then
    `output_gradients`, which seeds the sweep, and `refine`, which updates
    the weights. A PosteriorStack keeps its own in `workspace`, built by its
    first forward_trace, so a training step allocates none of them. The
    buffers are the trace of the last forward_trace: the backward pass reads
    every intermediate from them.
    """

    def __init__(self, means, variances, gamma, layer_sizes):
        self.layers = layers = flat_layers(means, variances, layer_sizes)
        self.means_sq = np.empty_like(means)
        self.square_means = Square(means, self.means_sq)
        self.d_means = np.empty_like(means)
        self.d_variances = np.empty_like(means)
        self.d_mean_views = layer_views(self.d_means, layer_sizes)
        self.d_variance_views = layer_views(self.d_variances, layer_sizes)
        rows = means.shape[:-1] + (1,)
        self.inputs, self.outputs = _bias_buffers(layer_sizes[:-1], rows)
        means_sq = layer_views(self.means_sq, layer_sizes)
        self.transposed = [_transposed(layer, msq) for layer, msq in zip(layers, means_sq)]
        self.noise = noise = NoiseStep(gamma)

        last = len(layers) - 1
        output = (noise.mz.reshape(rows + (1,)), noise.vz.reshape(rows + (1,)))
        self.linear = [
            LinearForward(z.mean, layer.rows, None if l < last else output)
            for l, (z, layer) in enumerate(zip(self.inputs, layers))
        ]
        self.rectifiers = [
            _rectifier(MomentVector(*linear.out), out) for linear, out in zip(self.linear, self.outputs[1:])
        ]

        self.d_pre = [np.empty((2, *rows, units)) for units in layer_sizes[1:]]
        self.output_gradients = OutputGradients(gamma, noise.targets, noise.mz, noise.vz, *self.d_pre[last])
        self.linear_backward = [
            LinearBackward(layer.means, layer.variances, msq, dm, dv, z.mean, z.variance, *d_pre, inputs=l > 0)
            for l, (layer, msq, dm, dv, z, d_pre) in enumerate(
                zip(layers, means_sq, self.d_mean_views, self.d_variance_views, self.inputs, self.d_pre)
            )
        ]
        for l, rectifier in enumerate(self.rectifiers):
            # The next layer's input gradients without the bias slot, whose
            # moments are constants.
            dmz, dvz = self.linear_backward[l + 1].d_inputs
            rectifier.bind_gradients(dmz[..., :-1], dvz[..., :-1], *self.d_pre[l])
        self.refine = Refine(means, variances, self.d_means, self.d_variances, noise)


def _bias_buffers(widths, rows_shape):
    """Bias-extended input moments of widths units for rows of rows_shape, with
    the bias unit (mean 1, variance 0) in place, and views of their unit slots:
    outputs[0] takes the inputs x (variance 0), outputs[l] the rectifier
    output of layer l - 1."""
    inputs, outputs = [], []
    for units in widths:
        shape = rows_shape + (units + 1,)
        mean, variance = np.empty(shape), np.zeros(shape)
        mean[..., -1] = 1.0
        inputs.append(MomentVector(mean, variance))
        outputs.append(MomentVector(mean[..., :-1], variance[..., :-1]))
    return inputs, outputs


def forward_linear(
    layer: LayerPosterior,
    z: MomentVector,
    transposed: tuple[np.ndarray, np.ndarray, np.ndarray],
    kernel: LinearForward | None = None,
) -> MomentVector:
    """Marginal moments of W z / sqrt(cols) with W ~ posterior, z independent:

      mean = (z.mean @ M^T) / sqrt(cols)
      variance = (z.variance @ (M*M)^T + (z.mean * z.mean) @ V^T + z.variance @ V^T) / cols

    The 1/sqrt(cols) factor keeps each unit's input scale independent of its
    fan-in. z holds rows of inputs, (*runs, rows, cols) when the layer carries
    a leading runs axis. transposed is _transposed of the layer, which the
    caller keeps. kernel, when given, is a kernel.LinearForward bound to
    z.mean, whose output buffers the moments go to (a Workspace keeps one per
    layer); otherwise one is bound for this call.
    """
    cols = layer.cols
    if len(z) != cols:
        raise ValueError(f"input length {len(z)} != layer fan-in {cols}")
    if kernel is None:
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


def relu_moments(
    a: MomentVector, out: MomentVector | None = None, rectifier: Rectifier | None = None
) -> tuple[MomentVector, Rectifier]:
    """Mean and variance of max(0, x) for x ~ N(a.mean, a.variance), per unit,
    and the rectifier whose buffers hold the intermediates.

    out, when given, receives the moments and is returned; its rows of units
    must be evenly spaced, as in the unit slots of the next layer's
    bias-extended input. rectifier, when given, is a kernel.Rectifier bound
    to a and out, whose buffers the intermediates go to (a Workspace keeps
    one per hidden layer); otherwise one is bound for this call, as a rows
    pass does for each item. The intermediates stay valid until the
    rectifier's next call.

    kernel.c does the arithmetic; numpy runs log_ndtr on (alpha, -alpha) in
    one call, exp on (log Phi(alpha), log Phi(-alpha), log phi(alpha), log
    phi(alpha) - log Phi(alpha)) in one call and, where some unit takes the
    far-tail series, alpha ** 3.
    """
    if out is None:
        out = MomentVector(np.empty(a.mean.shape), np.empty(a.mean.shape))
    if rectifier is None:
        rectifier = _rectifier(a, out)
    rectifier.pre()
    log_ndtr(rectifier.log_ndtr_args, out=rectifier.log_ndtr_values)
    rectifier.mid()
    if rectifier.n_series:
        np.copyto(rectifier.cube, rectifier.alpha_s**3)
    np.exp(rectifier.exp_args, out=rectifier.exp_values)
    rectifier.post()
    return out, rectifier


def _rectifier(a: MomentVector, out: MomentVector) -> Rectifier:
    """A kernel.Rectifier bound to a's moments, made C-contiguous floats, and
    to out."""
    m = np.ascontiguousarray(a.mean, dtype=float)
    v = np.ascontiguousarray(a.variance, dtype=float)
    return Rectifier(m, v, out.mean, out.variance, DETERMINISTIC_VARIANCE, SERIES_THRESHOLD)


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

    It runs in the stack's workspace, which the first call builds, and its
    intermediates stay there until the stack's next forward_trace.
    """
    x = np.asarray(x, dtype=float)
    expected = stack.means.shape[:-1] + (stack.layer_sizes[0],)
    if x.shape != expected:
        raise ValueError(f"input has shape {x.shape}, expected {expected}")
    if stack.workspace is None:
        stack.workspace = Workspace(stack.means, stack.variances, stack.gamma, stack.layer_sizes)
    ws = stack.workspace
    ws.square_means()
    _propagate(ws.layers, ws.inputs, ws.outputs, x[:, None, :], ws.transposed, ws)
    return ws.noise.mz, ws.noise.vz


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


def _propagate(layers, inputs, outputs, x, transposed, ws=None) -> MomentVector:
    """The output layer's pre-activation moments for rows x, through the
    bias-extended input buffers of _bias_buffers and each layer's transposed
    means, variances and squared means.

    With a Workspace ws (forward_trace), the pass runs on its kernels, whose
    buffers keep every intermediate; without, each layer binds its own, each
    rectifier to the whole of its pass.
    """
    np.copyto(outputs[0].mean, x)
    last = len(layers) - 1
    for l, layer in enumerate(layers):
        a = forward_linear(layer, inputs[l], transposed[l], None if ws is None else ws.linear[l])
        if l < last:
            relu_moments(a, outputs[l + 1], None if ws is None else ws.rectifiers[l])
    return a

