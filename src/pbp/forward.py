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
it, in a kernel.Step: the stack's workspace, or one per run group of an
epoch of enough runs and weights (run_groups). Training folds a whole epoch
of examples into one call per group, the groups on every usable CPU
(_run_items, updates.incorporate_likelihood_factors). The rectifier's two
fixed numbers, the variance below which a unit is deterministic and the
standardized mean below which its pdf/cdf ratio takes the asymptotic series,
are constants of kernel.c, as is log 2 pi; kernel.py reads them from there
(kernel.DETERMINISTIC_VARIANCE, SERIES_THRESHOLD and LOG_2PI).
"""

from __future__ import annotations

import contextvars
import os
import threading

import numpy as np

from .kernel import RowsPass, Step
from .posterior import PosteriorStack

# Rows per block of a large forward pass (see forward_output_moments).
BLOCK_ROWS = 512
# The fewest runs of a group of a training epoch, and the fewest weight
# updates (examples x runs x weights) of an epoch that runs in groups: on one
# CPU, a smaller epoch loses more to the threads' start and switches than a
# second CPU would save it (see run_groups).
GROUP_RUNS, GROUP_WORK = 4, 1 << 18


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
    thread binds on its first item and binds again, dropping the old buffers
    first, on an item that does not fit them: a thread's capacity is the
    running maximum of the items it has taken.
    """
    x = np.ascontiguousarray(x, dtype=float)
    runs, d = stack.means.shape[0], stack.layer_sizes[0]
    if x.ndim != 3 or x.shape[0] != runs or x.shape[-1] != d:
        raise ValueError(f"input has shape {x.shape}, expected {(runs, 'n', d)}")

    n = x.shape[1]
    out_mean, out_var = np.empty((runs, n)), np.empty((runs, n))
    items = _work_items(runs, n)
    bound = threading.local()

    def forward_item(item):
        group = len(range(runs)[item[0]])
        held = getattr(bound, "rows_pass", None)
        have = (0, 0) if held is None else held.capacity
        need = max(have[0], group), max(have[1], group * (item[1].stop - item[1].start))
        if need != have:
            bound.rows_pass = held = None  # the old buffers go before the new ones come
            held = bound.rows_pass = RowsPass(
                stack.means, stack.variances, stack.layer_sizes, x, out_mean, out_var, *need
            )
        held(*item)

    _run_items(forward_item, items, runs * n >= 2 * BLOCK_ROWS)
    return out_mean, out_var


def workspace(stack: PosteriorStack) -> Step:
    """The stack's likelihood step, a kernel.Step that the first call builds
    and keeps on the stack."""
    if stack.workspace is None:
        stack.workspace = Step(stack.means, stack.variances, stack.gamma, stack.layer_sizes)
    return stack.workspace


def run_groups(stack: PosteriorStack, examples: int) -> list[tuple[slice, Step]]:
    """The run groups of an epoch of the stack of `examples` examples per
    run, each a contiguous slice of its runs with the kernel.Step of those
    runs: one group per usable CPU, each of at least GROUP_RUNS runs. An
    epoch of fewer than GROUP_WORK weight updates, a stack of fewer than
    2 * GROUP_RUNS runs, or one on one usable CPU, is one group, whose step
    is the stack's workspace. Otherwise each group's step is bound to its
    rows of the stack's means and variances and to (2, g) noise Gammas of
    its own (step.noise.gamma); the first call with a group count builds the
    groups and keeps them on the stack."""
    runs = stack.means.shape[0]
    # usable_cpus is a system call: most epochs are one group without it.
    count = min(usable_cpus(), runs // GROUP_RUNS) if examples * stack.means.size >= GROUP_WORK else 1
    if count <= 1:
        return [(slice(0, runs), workspace(stack))]
    if stack.groups is None or len(stack.groups) != count:
        bounds = [runs * k // count for k in range(count + 1)]
        groups = []
        for start, stop in zip(bounds, bounds[1:]):
            part, gamma = slice(start, stop), np.empty((2, stop - start))
            groups.append((part, Step(stack.means[part], stack.variances[part], gamma, stack.layer_sizes)))
        stack.groups = groups
    return stack.groups


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
