#!/usr/bin/env python3
"""Report which loops of pbp's kernel.c gcc vectorizes.

    python scripts/vectorized_loops.py [TREE]

TREE (by default the checkout this script is in) is a checkout of this
repository: pbp is imported from its `src` for kernel.FLAGS, and its
kernel.c is compiled with those flags and `-fopt-info-vec-optimized` into a
temporary directory. One line per function of kernel.c that has a `for`
loop: whether gcc vectorized any of its loops, and the lines of the loops
it vectorized and of those it did not. A loop of a function that is
inlined counts at its own line, wherever it was inlined.
"""

import re
import subprocess
import sys
import tempfile
from pathlib import Path

# A function definition starts at column 0 with its return type and name;
# its body ends at a closing brace at column 0.
DEFINITION = re.compile(r"^(?!typedef|struct|enum)[a-z][\w \*]*?\b(\w+)\(")
VECTORIZED = re.compile(r":(\d+):\d+: optimized: loop vectorized")


def loops_by_function(source: str) -> dict[str, list[int]]:
    """The line numbers of the `for` loops of each function of source."""
    loops, name = {}, None
    for number, line in enumerate(source.splitlines(), start=1):
        match = DEFINITION.match(line)
        if match and not line.rstrip().endswith(";"):
            name = match.group(1)
        elif line == "}":
            name = None
        elif name and re.search(r"\bfor \(", line):
            loops.setdefault(name, []).append(number)
    return loops


def main(argv: list[str]) -> None:
    tree = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(tree / "src"))
    from pbp import kernel

    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run(
            [kernel.COMPILER, *kernel.FLAGS, "-fopt-info-vec-optimized",
             "-o", str(Path(tmp) / "kernel.so"), str(kernel.SOURCE), "-lm"],
            capture_output=True, text=True, check=True,
        )
    vectorized = {int(line) for line in VECTORIZED.findall(done.stderr)}
    print(f"{kernel.SOURCE.name}, {kernel.COMPILER} {' '.join(kernel.FLAGS)}")
    for name, lines in loops_by_function(kernel.SOURCE.read_text()).items():
        done_lines = [n for n in lines if n in vectorized]
        other = [n for n in lines if n not in vectorized]
        print(
            f"{name:<16} {'vectorized' if done_lines else 'not vectorized':<15}"
            f" loops at {', '.join(map(str, done_lines)) or '-'};"
            f" not at {', '.join(map(str, other)) or '-'}"
        )


if __name__ == "__main__":
    main(sys.argv)
