#!/usr/bin/env python3
"""Time the likelihood step and the rows pass of pbp, in process, on a few
stack shapes.

    python scripts/step_timing.py TREE [--steps=N] [--repeats=K] [--cpus=C] [--json]
    python scripts/step_timing.py --fresh TREE [TREE ...] [--repeats=K] [--cpus=C] [--json]

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
between two calls, without it), the backward pass and the refinement. On a
stack whose epoch runs in run groups (forward.run_groups), each group's
step counts its own phases and the line gives their sum, thread time that
may exceed the wall time per step where the groups ran side by side.

The header gives the number of CPUs the process may run on, and the
two-thread probe (two_thread_probe): the time of two concurrent GIL-free
kernel.c calls (log_ndtr_n of PROBE_VALUES values each) over that of one
alone, the median of PROBE_REPEATS. It reads about 1 where a second CPU
runs the second call and about 2 where it does not, so it tells whether
the work this run splits over threads had a second CPU. --cpus=C pins
this process, and the processes it starts, to the first C CPUs it may run
on (os.sched_setaffinity, which acts on this process alone), as `taskset`
would: --cpus=1 times a tree on one CPU.

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
range.

A sixth table times what a user waits for from a shell, in fresh Python
processes (FRESH): `import pbp.cli`, timed inside the process, and the whole
process of a `pbp predict` of FRESH_PREDICT's rows of .6g cells through a
model trained as the fifth table's, and of a `pbp train` on FRESH_TRAIN's
seeded rows, each run as the `pbp` script runs main. A round runs each of
them once; the table gives the median seconds over K rounds and their
range. It then splits the import, median milliseconds over K more
processes: the cumulative import of each module of SPLIT_MODULES that the
process imports (`-X importtime`, `site` being the interpreter's .pth
imports), and, from processes whose import runs under cProfile, the
cumulative time of each function of pbp.kernel's import in SPLIT_FUNCTIONS
(`_compiler_version` is build()'s `gcc --version`). With --fresh only this
table runs, for each TREE, the trees' processes alternated in each round,
the first tree first in odd rounds and last in even ones.

--json prints one JSON object instead of the tables.
"""

import inspect
import itertools
import json
import os
import statistics
import subprocess
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
# The two-thread probe: values per log_ndtr_n call, and calls timed.
PROBE_VALUES, PROBE_REPEATS = 500_000, 5
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
# The fresh processes timed, and the code each runs: the import, timed in
# the process, and the `pbp` script's main on a predict and a train.
PBP = "import sys; from pbp.cli import main; sys.exit(main(sys.argv[1:]))"
FRESH = {
    "import": "import time; t = time.perf_counter(); import pbp.cli; print(time.perf_counter() - t)",
    "predict": PBP,
    "train": PBP,
}
FRESH_PREDICT = ([6, 10, 1], 40_000)
FRESH_TRAIN = dict(rows=300, features=6, epochs=10)
SPLIT_MODULES = ("site", "numpy", "scipy", "scipy.special", "scipy.special.cython_special",
                 "pbp.kernel", "pbp.cli")
SPLIT_FUNCTIONS = ("_compiler_version", "resolve_externals", "check_externals", "pow5_tables",
                   "check_repr", "check_read")
PROFILED_IMPORT = (
    "import cProfile, json, pstats\n"
    "profile = cProfile.Profile()\n"
    "profile.runcall(__import__, 'pbp.cli')\n"
    "print(json.dumps({name: seconds for (path, _, name), (_, _, _, seconds, _)\n"
    "                  in pstats.Stats(profile).stats.items()\n"
    "                  if path.endswith('pbp/kernel.py')}))\n"
)


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
    import pbp.forward

    epoch = epoch_call()
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(WARM_UP + steps, runs, sizes[0]))
    ys = np.sin(xs.sum(axis=-1)) + 0.1 * rng.normal(size=(WARM_UP + steps, runs))
    # train_runs passes each epoch's examples as C-contiguous copies.
    warm_up = [np.ascontiguousarray(a[:WARM_UP]) for a in (xs, ys)]
    timed = [np.ascontiguousarray(a[WARM_UP:]) for a in (xs, ys)]
    stack = fresh_stack(runs, sizes, seed)
    epoch(stack, *warm_up)
    counters = []
    if count_phases:
        # The steps the timed epoch runs in: its run groups' on trees that
        # have them, else the stack's workspace.
        run_groups = getattr(pbp.forward, "run_groups", None)
        bound = [step for _, step in run_groups(stack, steps)] if run_groups else [stack.workspace]
        counters = [step.count_phases() for step in bound]
    start = time.perf_counter()
    epoch(stack, *timed)
    seconds = (time.perf_counter() - start) / steps
    return seconds, sum(counters) / 1e9 / steps if counters else None


def two_thread_probe():
    """The median over PROBE_REPEATS of the time of two kernel.c log_ndtr_n
    calls of PROBE_VALUES values, each on its own thread at once, over that
    of one alone; None on a tree without the call."""
    import ctypes
    import threading

    import numpy as np
    import pbp.kernel as kernel

    if not hasattr(kernel, "EXTERNALS") or not hasattr(kernel.LIB, "log_ndtr_n"):
        return None
    x = np.linspace(-40.0, 10.0, PROBE_VALUES)
    outs = [np.empty_like(x) for _ in range(2)]
    externals = ctypes.byref(kernel.EXTERNALS)

    def call(out):
        kernel.LIB.log_ndtr_n(externals, x.size, x.ctypes.data, out.ctypes.data)

    call(outs[0])
    ratios = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        call(outs[0])
        one = time.perf_counter() - start
        threads = [threading.Thread(target=call, args=(out,)) for out in outs]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ratios.append((time.perf_counter() - start) / one)
    return statistics.median(ratios)


def pin(cpus):
    """Pin this process to the first cpus CPUs it may run on."""
    allowed = sorted(os.sched_getaffinity(0))
    if not 1 <= cpus <= len(allowed):
        raise SystemExit(f"--cpus={cpus}: this process may run on {len(allowed)} CPUs")
    os.sched_setaffinity(0, allowed[:cpus])


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


def fresh_files(directory):
    """{"predict": argv, "train": argv} of the fresh processes' `pbp`
    commands, on files written into directory."""
    import numpy as np

    sizes, rows = FRESH_PREDICT
    model, features = predict_files(sizes, rows, 0, directory, ".6g")
    rng = np.random.default_rng(1)
    x = rng.normal(size=(FRESH_TRAIN["rows"], FRESH_TRAIN["features"]))
    y = np.sin(x.sum(axis=1)) + 0.1 * rng.normal(size=FRESH_TRAIN["rows"])
    data = Path(directory) / "train.csv"
    data.write_text("".join(",".join(map(repr, [*a, b])) + "\n" for a, b in zip(x.tolist(), y.tolist())))
    return {
        "predict": ["predict", "--model", str(model), "--data", str(features),
                    "--out", str(Path(directory) / "pred.csv")],
        "train": ["train", "--data", str(data), "--epochs", str(FRESH_TRAIN["epochs"]),
                  "--out", str(Path(directory) / "trained.json")],
    }


def fresh_process(tree, code, argv=(), flags=()):
    """(seconds, stdout, stderr) of a new Python process running code with
    argv, pbp imported from tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *flags, "-c", code, *argv], env=env,
                          capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{code!r} {list(argv)} exited {done.returncode}: {done.stderr}")
    return seconds, done.stdout, done.stderr


def import_split(tree):
    """{name: seconds} of one process's import of pbp.cli: the cumulative
    import of each of SPLIT_MODULES it imports, and, from another process
    under cProfile, the cumulative time of each of SPLIT_FUNCTIONS."""
    _, _, log = fresh_process(tree, "import pbp.cli", flags=("-X", "importtime"))
    split = {}
    for line in log.splitlines():
        cells = line.split("|")
        if len(cells) == 3 and cells[2].strip() in SPLIT_MODULES:
            split[cells[2].strip()] = int(cells[1]) / 1e6
    _, out, _ = fresh_process(tree, PROFILED_IMPORT)
    functions = json.loads(out)
    split.update((name, functions[name]) for name in SPLIT_FUNCTIONS if name in functions)
    return split


def fresh_table(trees, repeats):
    """{tree: {"seconds": {process: summary}, "split_ms": {name: summary}}}
    of the FRESH processes and the import split, rounds alternating the
    trees."""
    times = {tree: {name: [] for name in FRESH} for tree in trees}
    splits = {tree: [] for tree in trees}
    with tempfile.TemporaryDirectory() as directory:
        argvs = fresh_files(directory)
        for k in range(repeats):
            for tree in trees if k % 2 == 0 else trees[::-1]:
                for name, code in FRESH.items():
                    seconds, out, _ = fresh_process(tree, code, argvs.get(name, ()))
                    times[tree][name].append(float(out) if name == "import" else seconds)
                splits[tree].append(import_split(tree))
    table = {}
    for tree in trees:
        split = {}
        for name in (*SPLIT_MODULES, *SPLIT_FUNCTIONS):
            ms = [run[name] * 1e3 for run in splits[tree] if name in run]
            if ms:
                split[name] = {"ms": statistics.median(ms), "ms_min": min(ms), "ms_max": max(ms)}
        table[str(tree)] = {
            "seconds": {
                name: {"s": statistics.median(t), "s_min": min(t), "s_max": max(t)}
                for name, t in times[tree].items()
            },
            "split_ms": split,
            "repeats": repeats,
        }
    return table


def print_fresh(table):
    for tree, row in table.items():
        cells = [f"{name} {t['s']:.3f} ({t['s_min']:.3f}-{t['s_max']:.3f})"
                 for name, t in row["seconds"].items()]
        print(f"fresh processes {tree}, s: " + ", ".join(cells), flush=True)
        cells = [f"{name} {t['ms']:.1f} ({t['ms_min']:.1f}-{t['ms_max']:.1f})"
                 for name, t in row["split_ms"].items()]
        print("  import split, ms: " + ", ".join(cells), flush=True)


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
    fresh_only = "fresh" in options
    if (len(args) != 1 and not (fresh_only and args)) or not set(options) <= {
        "steps", "repeats", "json", "fresh", "cpus"
    }:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    if "cpus" in options:
        pin(int(options["cpus"]))
    steps, repeats = int(options.get("steps", 3000)), int(options.get("repeats", 5))
    trees = [Path(a).resolve() for a in args]
    tree = trees[0]
    sys.path.insert(0, str(tree / "src"))
    if fresh_only:
        table = fresh_table(trees, repeats)
        if "json" in options:
            print(json.dumps({"fresh": table}))
        else:
            print_fresh(table)
        return 0
    import pbp.kernel

    counters = hasattr(getattr(pbp.kernel, "Step", None), "count_phases")
    folded = hasattr(getattr(pbp.kernel, "Step", None), "epoch")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    probe = two_thread_probe()
    if "json" not in options:
        calls = "one call per epoch" if folded else "one call per step"
        probed = "" if probe is None else f", two-thread probe {probe:.2f}"
        print(f"{tree}: {cpus} usable CPUs{probed}, BLAS on 1 thread, {calls}", flush=True)
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
    fresh = fresh_table(trees, repeats)
    if "json" in options:
        print(json.dumps({
            "tree": str(tree), "usable_cpus": cpus, "two_thread_probe": probe,
            "one_call_per_epoch": folded,
            "phase_counters": counters, "stacks": results, "rows_passes": rows_passes,
            "trainings": trainings, "active": active, "predict": predicts, "fresh": fresh,
        }))
    else:
        print_fresh(fresh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
