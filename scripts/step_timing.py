#!/usr/bin/env python3
"""Time the likelihood step and the rows pass of pbp, in process, on a few
stack shapes.

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
header gives the number of CPUs the process may run on.

A second table times the rows pass (`forward_output_moments`) of a few
stacks, each at a number of rows per run, on seeded inputs: the median
microseconds per pass over K repeats, each the mean of enough passes for
about ROWS_PER_REPEAT rows (at most MAX_PASSES), and their range; the pass
runs on every usable CPU from its threshold on, as in the CLI.

A third table times `train_runs` of TRAINING_EPOCHS epochs on a few stacks,
each on seeded normalized training sets of a number of rows per run: the
median milliseconds per call over K repeats, and their range, with a
training-RMSE rows pass over every run's training set at the end of each
epoch and, on trees whose `train_runs` runs no such pass (TrainReport has no
`epoch_rmse`), without it, the two alternated in each repeat. On those trees
the pass is `prediction.training_rmse`, run where `check_variances` runs, as
the trees that fill `epoch_rmse` run it.

A fourth table times `run_active_experiments` at the yacht_active shape
(ACTIVE): its repetitions of each policy in one call, as `pbp active
--policy both` runs them, on a seeded Yacht-shaped data set: the median
milliseconds per call over K repeats, and their range.

A fifth table times `pbp predict` at the perfbench workloads' shapes
(PREDICTS): a model saved after one epoch on a seeded training set, and a
seeded features CSV of 40,000 rows in each form of PREDICT_CELLS (6
significant digits, as perfbench writes its inputs, and each float's repr,
up to 17), through each phase of `cli.cmd_predict` in turn
(PREDICT_PHASES): `load_model`, `read_csv_matrix`, the rows pass
(`predict_batch`), the CSV text (`cli._prediction_csv`) and its write to a
file. Each phase gives the median milliseconds over K repeats, and their
range. --json prints one JSON object instead of the tables.
"""

import inspect
import itertools
import json
import os
import statistics
import sys
import tempfile
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
# (runs, layer sizes, rows per run) of the rows passes timed
ROWS_PASSES = [
    (1, [6, 10, 1], 1),
    (1, [11, 50, 50, 1], 1),
    (20, [6, 10, 1], 25),
    (20, [6, 10, 1], 100),
    (20, [13, 50, 1], 455),
    (1, [11, 50, 50, 1], 40_000),
]
ROWS_PER_REPEAT, MAX_PASSES = 20_000, 1_000
# (runs, layer sizes, training rows per run) of the train_runs calls timed:
# the perfbench workloads' trainings
TRAININGS = [
    (20, [13, 50, 1], 455),
    (20, [6, 10, 1], 277),
    (1, [11, 50, 50, 1], 1_439),
]
TRAINING_EPOCHS = 2
# the two modes of the train_runs table, and their JSON keys
WITH, WITHOUT = "with_epoch_rmse", "without_epoch_rmse"
# The active-learning experiment timed: yacht_active's `pbp active`, its
# data set's rows and features, its hidden layer, epochs, repetitions per
# policy and ActiveConfig.
ACTIVE = dict(rows=308, features=6, hidden=(10,), epochs=4, repetitions=10,
              initial_train=20, test_size=100, acquisitions=9)
# (layer sizes, rows) of the `pbp predict` calls timed: boston_splits',
# yacht_active's and wine_deep's; and the training rows of their models.
PREDICTS = [([13, 50, 1], 40_000), ([6, 10, 1], 40_000), ([11, 50, 50, 1], 40_000)]
PREDICT_TRAINING_ROWS = 200
PREDICT_PHASES = ("load_model", "read_csv_matrix", "rows_pass", "csv_text", "write")
# The forms of the features CSV's cells: how each writes a float.
PREDICT_CELLS = {".6g": lambda v: format(v, ".6g"), "repr": repr}


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
    if "stack" in inspect.signature(perturb_means).parameters:
        perturb_means(stack, [rng] * runs)
    else:
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


def timed_rows_pass(runs, sizes, n, seed):
    """(seconds per pass, passes) of one repeat of the rows pass of a fresh
    stack, n rows per run."""
    import numpy as np
    from pbp.forward import forward_output_moments

    stack = fresh_stack(runs, sizes, seed)
    x = np.random.default_rng(seed).normal(size=(runs, n, sizes[0]))
    passes = max(1, min(MAX_PASSES, ROWS_PER_REPEAT // (runs * n)))
    forward_output_moments(stack, x)
    start = time.perf_counter()
    for _ in range(passes):
        forward_output_moments(stack, x)
    return (time.perf_counter() - start) / passes, passes


def timed_trainings(runs, sizes, n, seed, modes):
    """{mode: seconds} of one train_runs call per mode of modes, in that
    order, on the same seeded training sets: WITH or WITHOUT the epoch-end
    training-RMSE pass, which a train_runs that fills TrainReport.epoch_rmse
    runs itself."""
    import numpy as np
    import pbp.training as training
    from pbp.data import Dataset, normalize
    from pbp.posterior import PbpConfig

    rng = np.random.default_rng(seed)
    datasets = []
    for _ in range(runs):
        x = rng.normal(size=(n, sizes[0]))
        datasets.append(normalize(Dataset(x, np.sin(x.sum(axis=1)) + 0.1 * rng.normal(size=n)))[0])
    config = PbpConfig(hidden_layer_sizes=tuple(sizes[1:-1]), epochs=TRAINING_EPOCHS, seed=seed)
    features = np.stack([ds.features for ds in datasets])
    targets = np.stack([ds.targets for ds in datasets])
    # Trees whose train_runs takes the stack of training sets, and those
    # that take the list.
    stacked = "train" in inspect.signature(training.train_runs).parameters
    train = Dataset(features, targets) if stacked else datasets
    check_variances = training.check_variances

    def check_and_pass(stack, labels, epoch):
        from pbp.prediction import training_rmse

        check_variances(stack, labels, epoch)
        training_rmse(stack, features, targets)

    seconds = {}
    for mode in modes:
        if mode == WITH and not runs_the_pass(training):
            training.check_variances = check_and_pass
        rngs = [np.random.default_rng([seed, r]) for r in range(runs)]
        try:
            start = time.perf_counter()
            training.train_runs(train, config, rngs)
            seconds[mode] = time.perf_counter() - start
        finally:
            training.check_variances = check_variances
    return seconds


def timed_active(seed):
    """Seconds of one run_active_experiments call at the ACTIVE shape, on a
    data set drawn from seed; repetition r of either policy starts from
    seed + r, as in `pbp active`."""
    import numpy as np
    from pbp.active import POLICIES, ActiveConfig, run_active_experiments
    from pbp.data import Dataset
    from pbp.posterior import PbpConfig

    rng = np.random.default_rng(seed)
    x = rng.normal(size=(ACTIVE["rows"], ACTIVE["features"]))
    dataset = Dataset(x, np.sin(x.sum(axis=1)) + 0.1 * rng.normal(size=ACTIVE["rows"]))
    runs = [(policy, rep) for policy in POLICIES for rep in range(ACTIVE["repetitions"])]
    config = PbpConfig(hidden_layer_sizes=ACTIVE["hidden"], epochs=ACTIVE["epochs"], seed=seed)
    active_cfg = ActiveConfig(ACTIVE["initial_train"], ACTIVE["test_size"], ACTIVE["acquisitions"])
    rngs = [np.random.default_rng(seed + rep) for _, rep in runs]
    start = time.perf_counter()
    run_active_experiments(dataset, [policy for policy, _ in runs], config, rngs, active_cfg)
    return time.perf_counter() - start


def predict_files(sizes, rows, seed, directory, cells):
    """(model path, features path) in directory: a model of sizes trained
    for one epoch on a seeded set, and a CSV of rows seeded feature rows,
    each float written as PREDICT_CELLS[cells] writes it."""
    import numpy as np
    from pbp.data import Dataset, normalize, save_model
    from pbp.posterior import PbpConfig
    from pbp.prediction import TrainedModel
    from pbp.training import train

    rng = np.random.default_rng(seed)
    x = rng.normal(size=(PREDICT_TRAINING_ROWS, sizes[0]))
    dataset = Dataset(x, np.sin(x.sum(axis=1)) + 0.1 * rng.normal(size=PREDICT_TRAINING_ROWS))
    train_norm, stats = normalize(dataset)
    config = PbpConfig(hidden_layer_sizes=tuple(sizes[1:-1]), epochs=1, seed=seed)
    net, _, _ = train(train_norm, config, rng)
    model, features = Path(directory) / "model.json", Path(directory) / "features.csv"
    save_model(TrainedModel(net=net, norm=stats, config=config), model)
    # A header, as perfbench writes its inputs.
    lines = [",".join(f"x{i + 1}" for i in range(sizes[0]))]
    write = PREDICT_CELLS[cells]
    lines += [",".join(map(write, row)) for row in rng.normal(size=(rows, sizes[0])).tolist()]
    features.write_text("\n".join(lines) + "\n")
    return model, features


def timed_predict(model, features, out):
    """{phase: seconds} of one `pbp predict --model model --data features
    --out out`, phase by phase as cmd_predict runs them (PREDICT_PHASES)."""
    from pbp import cli
    from pbp.data import load_model, read_csv_matrix
    from pbp.posterior import PosteriorStack
    from pbp.prediction import predict_batch

    times = [time.perf_counter()]
    loaded = load_model(model)
    times.append(time.perf_counter())
    x, _ = read_csv_matrix(features)
    times.append(time.perf_counter())
    [means], [variances] = predict_batch(PosteriorStack.of([loaded.net]), loaded.norm, x[None])
    times.append(time.perf_counter())
    text = cli._prediction_csv(means, variances)
    times.append(time.perf_counter())
    with open(out, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    times.append(time.perf_counter())
    return {phase: end - start for phase, start, end in zip(PREDICT_PHASES, times, times[1:])}


def runs_the_pass(training):
    """Whether the tree's train_runs ends each epoch with the training-RMSE
    pass itself."""
    return "epoch_rmse" in training.TrainReport.__dataclass_fields__


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
    rows_passes = []
    for runs, sizes, n in ROWS_PASSES:
        name = f"{runs} x {'-'.join(map(str, sizes))}, {n} rows"
        repeats_done = [timed_rows_pass(runs, sizes, n, seed=k) for k in range(repeats)]
        times = [seconds * 1e6 for seconds, _ in repeats_done]
        row = {
            "stack": name,
            "us_per_pass": statistics.median(times),
            "us_min": min(times),
            "us_max": max(times),
            "passes": repeats_done[0][1],
            "repeats": repeats,
        }
        rows_passes.append(row)
        if "json" not in options:
            print(
                f"rows pass {name:>26}: {row['us_per_pass']:9.1f} us/pass "
                f"({row['us_min']:.1f}-{row['us_max']:.1f})",
                flush=True,
            )
    import pbp.training

    modes = [WITH] if runs_the_pass(pbp.training) else [WITH, WITHOUT]
    trainings = []
    for runs, sizes, n in TRAININGS:
        name = f"{runs} x {'-'.join(map(str, sizes))}, {n} rows"
        timed_trainings(runs, sizes, n, 0, modes)
        times = [timed_trainings(runs, sizes, n, k, modes if k % 2 == 0 else modes[::-1]) for k in range(repeats)]
        row = {"stack": name, "epochs": TRAINING_EPOCHS, "repeats": repeats}
        for mode in modes:
            ms = [t[mode] * 1e3 for t in times]
            row[mode] = {"ms_per_call": statistics.median(ms), "ms_min": min(ms), "ms_max": max(ms)}
        trainings.append(row)
        if "json" not in options:
            cells = [
                f"{row[key]['ms_per_call']:.1f} ms {key.replace('_', ' ')} "
                f"({row[key]['ms_min']:.1f}-{row[key]['ms_max']:.1f})"
                for key in modes
            ]
            print(f"train_runs {name:>26}, {TRAINING_EPOCHS} epochs: " + ", ".join(cells), flush=True)
    timed_active(0)
    ms = [timed_active(k) * 1e3 for k in range(repeats)]
    active = {
        "experiment": f"{2 * ACTIVE['repetitions']} x "
        f"{'-'.join(map(str, [ACTIVE['features'], *ACTIVE['hidden'], 1]))}, "
        f"{ACTIVE['epochs']} epochs, {ACTIVE['acquisitions']} acquisitions",
        "ms_per_call": statistics.median(ms), "ms_min": min(ms), "ms_max": max(ms),
        "repeats": repeats,
    }
    if "json" not in options:
        print(
            f"run_active_experiments {active['experiment']}: {active['ms_per_call']:.1f} ms "
            f"({active['ms_min']:.1f}-{active['ms_max']:.1f})",
            flush=True,
        )
    predicts = []
    for (sizes, n), cells in itertools.product(PREDICTS, PREDICT_CELLS):
        with tempfile.TemporaryDirectory() as directory:
            model, features = predict_files(sizes, n, 0, directory, cells)
            out = Path(directory) / "pred.csv"
            timed_predict(model, features, out)
            times = [timed_predict(model, features, out) for _ in range(repeats)]
        row = {"model": "-".join(map(str, sizes)), "rows": n, "cells": cells, "repeats": repeats}
        for phase in PREDICT_PHASES:
            ms = [t[phase] * 1e3 for t in times]
            row[phase] = {"ms": statistics.median(ms), "ms_min": min(ms), "ms_max": max(ms)}
        predicts.append(row)
        if "json" not in options:
            parts = [
                f"{phase} {row[phase]['ms']:.1f} ({row[phase]['ms_min']:.1f}-{row[phase]['ms_max']:.1f})"
                for phase in PREDICT_PHASES
            ]
            print(
                f"predict {row['model']:>11}, {n} rows of {cells:>4} cells, ms: " + ", ".join(parts),
                flush=True,
            )
    if "json" in options:
        print(json.dumps({
            "tree": str(tree), "usable_cpus": cpus, "one_call_per_epoch": folded,
            "phase_counters": counters, "stacks": results, "rows_passes": rows_passes,
            "trainings": trainings, "active": active, "predict": predicts,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
