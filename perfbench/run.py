#!/usr/bin/env python3
"""Benchmark of the pbp command line on seeded synthetic UCI-shaped data.

Each workload runs real CLI commands (`pbp.cli.main`, in process, `--jobs 1`,
BLAS on one thread) on CSVs generated from the workload seed, checks what they
write, and prints one JSON result object as the last line of stdout:

    python3 perfbench/run.py --workload boston_splits --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics, measured untraced. --trace 1
alternates untraced and traced executions and reports per-layer metrics from
the spans (see tracing.py), the trace overhead, and the deviation of a
reference execution's outputs from those recorded in baseline.json.
--profile prints a cProfile summary of one execution instead and feeds no
metric. Run it from the repository root or anywhere else; it reads the
program from ../src relative to this file and works in ../.perfbench_work.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

_STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BASELINE = HERE / "baseline.json"

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# BLAS reads its thread count when numpy loads, so pin it before the imports below.
os.environ.update(BLAS_THREADS)
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from calibration import SpeedProbe  # noqa: E402

SETUP_REPEATS = 5
SETUP_PROBES = 3  # kernel samples at each end of a set-up
SUBPROCESS_TIMEOUT_S = 120
REFERENCE_SEED = 1
TRAINING_KINDS = ("benchmark", "active", "train")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "updates_per_s": "1/s",
    "predict_rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "test_rmse": "target",
    "test_nll": "nats",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", action="store_true", help="print a cProfile summary of one execution")
    p.add_argument(
        "--record-reference", action="store_true",
        help=f"write the seed-{REFERENCE_SEED} outputs of the current tree to baseline.json",
    )
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------- executions


@dataclass
class Execution:
    """One run of a workload's commands: timings, outputs, problems, spans."""

    seconds: dict[str, float] = field(default_factory=dict)  # at the reference speed
    raw_seconds: dict[str, float] = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    failed_commands: int = 0
    spans: list | None = None

    @property
    def wall_s(self) -> float:
        return sum(self.seconds.values())


def execute(workload, cmds, out_dir, seed, truth, probe, tracer=None) -> Execution:
    import pbp.cli

    entry = pbp.cli.main if tracer is None else tracer.wrap(tracing.ROOT_SPAN, pbp.cli.main)
    ex = Execution()
    first_sample = len(probe.samples)
    with tracing.patched(tracer) if tracer is not None else contextlib.nullcontext():
        for cmd in cmds:
            stdout, stderr = io.StringIO(), io.StringIO()
            probe.sample()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = entry(cmd.argv)
            except Exception:  # a crash is a failed command; keep measuring the rest
                code = None
                stderr.write(traceback.format_exc())
            end = time.perf_counter()
            probe.sample()
            ex.raw_seconds[cmd.kind] = end - start
            ex.seconds[cmd.kind] = probe.reference_seconds(start, end)
            problems = []
            if code != 0:
                problems.append(f"{cmd.kind}: exit {code}: {stderr.getvalue().strip()[-500:]}")
            else:
                try:
                    outputs = workloads.read_outputs(cmd.kind, out_dir, stdout.getvalue())
                except (OSError, ValueError, KeyError) as exc:
                    problems.append(f"{cmd.kind}: unreadable output: {exc}")
                else:
                    ex.outputs.update(outputs)
                    problems += workloads.check_outputs(workload, cmd, outputs, truth, seed)
            ex.problems += problems
            ex.failed_commands += bool(problems)
    if tracer is not None:
        ex.spans = tracing.without_probe_time(tracer.spans, probe.samples[first_sample:])
    return ex


def same_outputs(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def measure(budget_s, run_one, min_runs):
    """Call run_one(i) until the next call would overrun the budget."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_one(len(results)))
        elapsed = time.perf_counter() - start
        if len(results) >= min_runs and elapsed * (len(results) + 1) / len(results) > budget_s:
            return results


# ---------------------------------------------------------------- setup


def setup_only(args) -> int:
    """Import the program, generate the inputs and write the CSVs; print the time.

    The calibration probe samples after numpy is imported and again at the
    end; its own time is left out of the set-up time.
    """
    probe = SpeedProbe()
    for _ in range(SETUP_PROBES):
        probe.sample()
    import pbp.cli  # noqa: F401  (the program's import is part of set-up)

    out_dir = Path(args.setup_only)
    files = workloads.write_inputs(workloads.WORKLOADS[args.workload], args.seed, out_dir)
    end = time.perf_counter()
    for _ in range(SETUP_PROBES):
        probe.sample()
    seconds = probe.reference_seconds(_STARTED, end)
    print(json.dumps({"setup_s": seconds, "raw_setup_s": end - _STARTED,
                      "digest": workloads.digest_files(files.values())}))
    return 0


def timed_setups(args, work: Path) -> tuple[list[float], Path]:
    """Set up SETUP_REPEATS times, each in a fresh interpreter; all must agree."""
    seconds, digests = [], set()
    for i in range(SETUP_REPEATS):
        out_dir = work / f"setup{i}"
        out_dir.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only", str(out_dir)],
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        seconds.append(record["setup_s"])
        digests.add(record["digest"])
    if len(digests) != 1:
        raise RuntimeError("set-up is not deterministic: the same seed gave different inputs")
    return seconds, work / "setup0"


def machine(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {k: os.environ[k] for k in BLAS_THREADS},
        "seed": seed,
    }


# ---------------------------------------------------------------- modes


def end_to_end(executions, cmds, setup_seconds, truth) -> dict[str, float]:
    def median(f):
        return statistics.median(f(ex) for ex in executions)

    updates = sum(c.updates for c in cmds)
    rows = sum(c.predict_rows for c in cmds)
    test_rmse, test_nll = workloads.accuracy(executions[0].outputs, truth)
    return {
        "setup_s": statistics.median(setup_seconds),
        "wall_s": median(lambda ex: ex.wall_s),
        "updates_per_s": median(
            lambda ex: updates / sum(ex.seconds[k] for k in TRAINING_KINDS if k in ex.seconds)
        ),
        "predict_rows_per_s": median(lambda ex: rows / ex.seconds["predict"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_rmse": test_rmse,
        "test_nll": test_nll,
    }


def reference_execution(workload, work: Path, probe) -> Execution:
    ref_dir = work / "reference"
    ref_dir.mkdir()
    files = workloads.write_inputs(workload, REFERENCE_SEED, ref_dir)
    truth = workloads.Truth.load(workload, files, REFERENCE_SEED)
    cmds = workloads.commands(workload, files, ref_dir, REFERENCE_SEED)
    return execute(workload, cmds, ref_dir, REFERENCE_SEED, truth, probe)


def reference_check(workload, work: Path, probe) -> tuple[float, Execution]:
    """Run the reference seed and compare its outputs with baseline.json."""
    ex = reference_execution(workload, work, probe)
    recorded = json.loads(BASELINE.read_text(encoding="utf-8"))["reference_outputs"]
    if workload.name not in recorded:
        raise RuntimeError(f"baseline.json has no reference outputs for {workload.name}")
    return workloads.max_rel_dev(ex.outputs, recorded[workload.name]), ex


def record_reference(workload, work: Path) -> int:
    ex = reference_execution(workload, work, SpeedProbe())
    if ex.problems:
        print("\n".join(ex.problems), file=sys.stderr)
        return 1
    doc = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.exists() else {}
    doc["reference_seed"] = REFERENCE_SEED
    doc.setdefault("reference_outputs", {})[workload.name] = workloads.summarize(ex.outputs)
    BASELINE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded reference outputs of {workload.name} in {BASELINE}")
    return 0


def profile(workload, cmds, out_dir, seed, truth) -> int:
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    ex = profiler.runcall(execute, workload, cmds, out_dir, seed, truth, SpeedProbe())
    pstats.Stats(profiler, stream=sys.stdout).sort_stats("tottime").print_stats(30)
    for problem in ex.problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 0 if not ex.problems else 1


def run(args, work: Path) -> int:
    workload = workloads.WORKLOADS[args.workload]
    if args.record_reference:
        return record_reference(workload, work)
    setup_seconds, in_dir = timed_setups(args, work)
    files = workloads.input_files(in_dir)
    out_dir = work / "out"
    out_dir.mkdir()
    truth = workloads.Truth.load(workload, files, args.seed)
    cmds = workloads.commands(workload, files, out_dir, args.seed)
    if args.profile:
        return profile(workload, cmds, out_dir, args.seed, truth)

    extra_executions = []
    probe = SpeedProbe()
    if args.trace:
        with probe:
            rel_dev, ref_ex = reference_check(workload, work, probe)
            extra_executions.append(ref_ex)

            def run_one(i):
                tracer = tracing.Tracer() if i % 2 else None
                return execute(workload, cmds, out_dir, args.seed, truth, probe, tracer)

            executions = measure(args.seconds, run_one, min_runs=2)
        untraced = [ex for ex in executions if ex.spans is None]
        traced = [ex for ex in executions if ex.spans is not None]
        layer_sizes = [workload.data.features, *workload.hidden, 1]
        metrics = tracing.layer_metrics([ex.spans for ex in traced], layer_sizes)
        metrics["trace.overhead_ratio"] = statistics.median(ex.wall_s for ex in traced) / (
            statistics.median(ex.wall_s for ex in untraced)
        )
        metrics["check.max_rel_dev"] = rel_dev
        units = {name: tracing.unit_of(name) for name in metrics}
    else:
        with probe:
            executions = measure(
                args.seconds,
                lambda i: execute(workload, cmds, out_dir, args.seed, truth, probe),
                min_runs=1,
            )
        metrics = end_to_end(executions, cmds, setup_seconds, truth)
        units = END_TO_END_UNITS

    for ex in executions[1:]:
        if not ex.problems and not same_outputs(ex.outputs, executions[0].outputs):
            ex.problems.append("outputs differ from the first execution of the same inputs")
            ex.failed_commands += 1
    everything = executions + extra_executions
    attempted = len(cmds) * len(everything)
    failed = sum(ex.failed_commands for ex in everything)
    for ex in everything:
        for problem in ex.problems:
            print(f"problem: {problem}", file=sys.stderr)

    print(json.dumps({
        "machine": machine(args.seed),
        "workload": args.workload,
        "executions": len(executions),
        "raw_wall_s": [sum(ex.raw_seconds.values()) for ex in executions],
        "kernel_ms_quartiles": [
            q * 1e3 for q in statistics.quantiles([d for _, d in probe.samples], n=4)
        ],
    }))
    for name, value in metrics.items():
        print(f"{name:55s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pbp" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'pbp'}", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
