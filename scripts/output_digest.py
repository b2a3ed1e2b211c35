#!/usr/bin/env python3
"""Print the sha-256 of every output of the perfbench workloads' commands.

    python scripts/output_digest.py TREE SEED [SEED ...]

TREE is a checkout of this repository: pbp is imported from its `src`, and
its `perfbench/workloads.py` (imported, never written) gives each workload's
seeded input CSVs and its CLI commands. For every workload and seed the
commands run in this process through `pbp.cli.main`, in a temporary
directory and with relative paths, BLAS pinned to one thread as in
perfbench. One line per output: every file in the directory afterwards, and
each command's exit status, stdout and stderr, with the `seconds:` (wall
time) and `model:` lines of `train`'s stdout dropped. Two trees whose
commands write the same bytes print the same lines, so a refactor that
keeps behaviour shows none changed.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

# BLAS reads its thread count when numpy loads.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

DROPPED = {"train": ("seconds:", "model:")}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(workloads, cli, workload, seed: int):
    """(output, sha-256) of every output of one workload execution, run in
    the current directory."""
    here = Path(".")
    files = workloads.write_inputs(workload, seed, here)
    lines = []
    for k, command in enumerate(workloads.commands(workload, files, here, seed)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(command.argv)
        stdout = "".join(
            line for line in out.getvalue().splitlines(keepends=True)
            if not line.startswith(DROPPED.get(command.kind, ()))
        )
        name = f"{k}:{command.kind}"
        lines.append((f"{name} exit", str(status)))
        lines.append((f"{name} stdout", sha256(stdout.encode())))
        lines.append((f"{name} stderr", sha256(err.getvalue().encode())))
    for path in sorted(here.iterdir()):
        lines.append((path.name, sha256(path.read_bytes())))
    return lines


def main(argv: list[str]) -> int:
    if len(argv) < 2 or not all(seed.isdigit() for seed in argv[1:]):
        print("usage: output_digest.py TREE SEED [SEED ...]", file=sys.stderr)
        return 1
    tree = Path(argv[0]).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads

    import pbp.cli as cli

    start = os.getcwd()
    for name, workload in workloads.WORKLOADS.items():
        for seed in map(int, argv[1:]):
            with tempfile.TemporaryDirectory(prefix="pbp-digest-") as work:
                os.chdir(work)
                try:
                    for output, digest in digests(workloads, cli, workload, seed):
                        print(f"{name} seed {seed} {output} {digest}")
                finally:
                    os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
