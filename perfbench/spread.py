#!/usr/bin/env python3
"""Run-to-run spread of the benchmark: run one workload under several seeds
and report, per metric, the median and the quartile spread as a share of the
median (statistics.quantiles with n=4), next to the bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload boston_splits --seeds 1 2 3 4 5

Runs are sequential; each is a separate `run.py` process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, "correct": result["correct"], "failed": result["failed"]}),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    report = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
        report[name] = {
            "median": median,
            "spread": (q3 - q1) / abs(median) if median else 0.0,
            "bound": bounds.get(name),
            "values": vals,
        }
        print(f"{name:55s} median {median:14.6g}  spread {report[name]['spread']:.4f}"
              f"  bound {bounds.get(name)}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
