"""Forward propagation of activation means and variances through the network.

Weights are random under the factored posterior, so each layer's outputs are
random too. Every intermediate distribution is collapsed to independent
Gaussians by matching marginal means and variances; the rectifier output is a
mixture of a point mass at 0 and a truncated Gaussian, whose first two moments
have closed forms.

The pass runs in kernel.c, whose forward_layer computes a layer's moments
and rectifier over n input rows per run, calling numpy's BLAS, scipy's
log_ndtr and numpy's exp and power loops from there. A rows pass
(forward_output_moments) runs each work item through every layer in one
call (kernel.RowsPass); the likelihood step runs one row per run through
it, in the stack's workspace (kernel.Step), and training folds a whole epoch
of examples into one call (updates.incorporate_likelihood_factors).
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass

import numpy as np

from .kernel import RowsPass, Step
from .posterior import PosteriorStack

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


def forward_output_moments(stack: PosteriorStack, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Propagate the moments of rows of inputs through every layer of every
    run of a stack.

    x has shape (R, n, d) for a PosteriorStack of R runs: n rows per run; the
    output mean and variance have shape (R, n). No trace is kept; an update
    runs its own pass (see workspace).

    The rows go through in work items (see _work_items) of one row block and
    a group of runs, so the working set is bounded by one item whatever the
    row count. From 2 * BLOCK_ROWS rows on, the blocks start at multiples of
    BLOCK_ROWS and the last takes the remainder: every gemm sees at least
    BLOCK_ROWS rows and every row keeps its offset mod 4, which keeps the
    kernels, and so the bits, of an unblocked pass. No item reads another's
    rows or runs, so from 2 * BLOCK_ROWS rows over all runs on, the items run
    on every usable CPU (see _run_items), bit for bit as in a serial pass.
    Each item is one kernel.c call, through a kernel.RowsPass that each
    thread binds on its first item, with buffers for the largest item.
    """
    x = np.ascontiguousarray(x, dtype=float)
    runs, d = stack.means.shape[0], stack.layer_sizes[0]
    if x.ndim != 3 or x.shape[0] != runs or x.shape[-1] != d:
        raise ValueError(f"input has shape {x.shape}, expected {(runs, 'n', d)}")

    n = x.shape[1]
    out_mean, out_var = np.empty((runs, n)), np.empty((runs, n))
    items = _work_items(runs, n)
    sizes = [(len(range(runs)[group]), rows.stop - rows.start) for group, rows in items]
    largest = max(group for group, _ in sizes), max(group * rows for group, rows in sizes)
    bound = threading.local()

    def forward_item(item):
        rows_pass = getattr(bound, "rows_pass", None)
        if rows_pass is None:
            rows_pass = bound.rows_pass = RowsPass(
                stack.means, stack.variances, stack.layer_sizes, x, out_mean, out_var, *largest,
                DETERMINISTIC_VARIANCE, SERIES_THRESHOLD,
            )
        rows_pass(*item)

    _run_items(forward_item, items, runs * n >= 2 * BLOCK_ROWS)
    return out_mean, out_var


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
