#!/usr/bin/env python3
"""Time the likelihood step of pbp, in process, on a few stack shapes.

    python scripts/step_timing.py TREE [--steps=N] [--repeats=K] [--json]

TREE is a checkout of this repository: pbp is imported from its `src`, with
BLAS pinned to one thread as in perfbench. For each stack (runs x layer
sizes) a fresh stack is built as training builds it (hyperprior Gammas, the
prior factors, perturbed means), takes an epoch of 200 warm-up steps and
then a timed epoch of N steps on seeded inputs and targets, each through
what `train_runs` calls on that tree: one `incorporate_likelihood_factors`
call for the epoch where it takes (N, R, d) inputs (kernel.Step has
`epoch`), N calls of one step each where it takes (R, d). The line gives the
median microseconds per step over K such repeats, and their range. A tree
whose step keeps per-phase counters (kernel.Step.count_phases) also gets the
microseconds per step of each phase, from one more repeat with the counters
on: each layer's forward pass (on trees whose step leaves numpy's exp
between two calls, without it), the backward pass and the refinement. The
header gives the number of CPUs the process may run on. --json prints one
JSON object instead of the table.
"""

import json
import os
import statistics
import sys
import time
from pathlib import Path

# BLAS reads its thread count when numpy loads.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

STACKS = [
    (1, [1, 1, 1]),
    (1, [1, 1, 1, 1]),
    (20, [6, 10, 1]),
    (20, [13, 50, 1]),
    (1, [11, 50, 50, 1]),
    (1, [90, 100, 1]),
]
WARM_UP = 200


def fresh_stack(runs, sizes, seed):
    """A stack of runs in the state training starts its first epoch from."""
    import numpy as np
    from pbp.posterior import HYPERPRIOR, GammaDist, PosteriorStack, new_uniform, perturb_means
    from pbp.updates import incorporate_all_prior_factors

    net = new_uniform(sizes)
    net.gamma = GammaDist(*HYPERPRIOR)
    net.lam = GammaDist(*HYPERPRIOR)
    stack = PosteriorStack.of([net] * runs)
    incorporate_all_prior_factors(stack)
    rng = np.random.default_rng(seed)
    for r in range(runs):
        perturb_means(stack.run(r), rng)
    return stack


def epoch_call():
    """epoch(stack, xs, ys): what train_runs calls on this tree for an epoch
    of xs (n, R, d) and ys (n, R)."""
    import pbp.kernel
    from pbp.updates import incorporate_likelihood_factors

    if hasattr(getattr(pbp.kernel, "Step", None), "epoch"):
        return incorporate_likelihood_factors

    def per_example(stack, xs, ys):
        for x, y in zip(xs, ys):
            incorporate_likelihood_factors(stack, x, y)

    return per_example


def timed_steps(runs, sizes, steps, seed, count_phases=False):
    """(seconds per step, per-phase seconds per step or None) of one repeat."""
    import numpy as np

    epoch = epoch_call()
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(WARM_UP + steps, runs, sizes[0]))
    ys = np.sin(xs.sum(axis=-1)) + 0.1 * rng.normal(size=(WARM_UP + steps, runs))
    # train_runs passes each epoch's examples as C-contiguous copies.
    warm_up = [np.ascontiguousarray(a[:WARM_UP]) for a in (xs, ys)]
    timed = [np.ascontiguousarray(a[WARM_UP:]) for a in (xs, ys)]
    stack = fresh_stack(runs, sizes, seed)
    epoch(stack, *warm_up)
    phases = None
    if count_phases:
        phases = stack.workspace.count_phases()
    start = time.perf_counter()
    epoch(stack, *timed)
    seconds = (time.perf_counter() - start) / steps
    return seconds, None if phases is None else phases / 1e9 / steps


def phase_names(sizes):
    hidden = len(sizes) - 2
    return [f"forward {l}" for l in range(hidden)] + ["forward out", "backward", "refine"]


def main(argv):
    args = [a for a in argv if not a.startswith("--")]
    options = dict(a[2:].split("=", 1) if "=" in a else (a[2:], "1") for a in argv if a.startswith("--"))
    if len(args) != 1 or not set(options) <= {"steps", "repeats", "json"}:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    steps, repeats = int(options.get("steps", 3000)), int(options.get("repeats", 5))
    tree = Path(args[0]).resolve()
    sys.path.insert(0, str(tree / "src"))
    import pbp.kernel

    counters = hasattr(getattr(pbp.kernel, "Step", None), "count_phases")
    folded = hasattr(getattr(pbp.kernel, "Step", None), "epoch")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if "json" not in options:
        calls = "one call per epoch" if folded else "one call per step"
        print(f"{tree}: {cpus} usable CPUs, BLAS on 1 thread, {calls}", flush=True)
    results = []
    for runs, sizes in STACKS:
        name = f"{runs} x {'-'.join(map(str, sizes))}"
        times = [timed_steps(runs, sizes, steps, seed=k)[0] * 1e6 for k in range(repeats)]
        row = {
            "stack": name,
            "us_per_step": statistics.median(times),
            "us_min": min(times),
            "us_max": max(times),
            "steps": steps,
            "repeats": repeats,
        }
        if counters:
            _, phases = timed_steps(runs, sizes, steps, seed=repeats, count_phases=True)
            row["phases_us"] = dict(zip(phase_names(sizes), (p * 1e6 for p in phases.tolist())))
        results.append(row)
        if "json" not in options:
            line = f"{name:>16}: {row['us_per_step']:7.1f} us/step ({row['us_min']:.1f}-{row['us_max']:.1f})"
            if counters:
                line += "  " + ", ".join(f"{k} {v:.1f}" for k, v in row["phases_us"].items())
            print(line, flush=True)
    if "json" in options:
        print(json.dumps({
            "tree": str(tree), "usable_cpus": cpus, "one_call_per_epoch": folded,
            "phase_counters": counters, "stacks": results,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
