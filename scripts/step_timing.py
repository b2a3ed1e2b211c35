#!/usr/bin/env python3
"""Time the likelihood step of pbp, in process, on a few stack shapes.

    python scripts/step_timing.py TREE [--steps N] [--repeats K] [--json]

TREE is a checkout of this repository: pbp is imported from its `src`, with
BLAS pinned to one thread as in perfbench. For each stack (runs x layer
sizes) a fresh stack is built as training builds it (hyperprior Gammas, the
prior factors, perturbed means), takes 200 warm-up steps and then N timed
steps of `incorporate_likelihood_factors` on seeded inputs and targets; the
line gives the median microseconds per step over K such repeats, and their
range. A tree whose step keeps per-phase counters (kernel.Step.count_phases)
also gets the microseconds per step of each phase, from one more repeat
with the counters on: each layer's forward call (with the numpy work after
it not included), the backward pass and the refinement. --json prints one
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


def timed_steps(runs, sizes, steps, seed, count_phases=False):
    """(seconds per step, per-phase seconds per step or None) of one repeat."""
    import numpy as np
    from pbp.updates import incorporate_likelihood_factors

    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(WARM_UP + steps, runs, sizes[0]))
    ys = np.sin(xs.sum(axis=-1)) + 0.1 * rng.normal(size=(WARM_UP + steps, runs))
    stack = fresh_stack(runs, sizes, seed)
    for t in range(WARM_UP):
        incorporate_likelihood_factors(stack, xs[t], ys[t])
    phases = None
    if count_phases:
        phases = stack.workspace.count_phases()
    start = time.perf_counter()
    for t in range(WARM_UP, WARM_UP + steps):
        incorporate_likelihood_factors(stack, xs[t], ys[t])
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
        print(json.dumps({"tree": str(tree), "phase_counters": counters, "stacks": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
