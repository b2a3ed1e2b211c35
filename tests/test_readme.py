"""The README's library example runs as written."""

import math
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The python block of the README's `## Library use` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    # A small seeded stand-in for data/boston.csv: 60 rows, 3 features and
    # the medv target.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(0.0, 0.3, 60)
    rows = "".join(",".join(repr(v) for v in row) + "\n" for row in np.column_stack([X, y]).tolist())
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "boston.csv").write_text("crim,rm,lstat,medv\n" + rows, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4
    assert all(math.isfinite(float(value)) for value in printed)
