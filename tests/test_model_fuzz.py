"""Seeded mutants of model files through `pbp predict`: a corrupt but
parseable (or unparseable) model file exits 0, 2 or 3, a failure with one
line on stderr and no traceback or warning, and a success with finite
predictions."""

import copy
import csv
import json
import math
import random
import warnings
from pathlib import Path

import pytest

from pbp.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main

FIXTURES = Path(__file__).parent / "fixtures"
FEATURES = FIXTURES / "toy_features.csv"
MUTANTS_PER_FILE = 150
KINDS = ("delete key", "swap type", "scale by 1e300", "special number", "truncate array",
         "truncate file")
# Values of every JSON type, for "swap type": null, boolean, string, array,
# object, integer, number.
OTHER_TYPES = (None, True, "text", [], {}, 7, 0.5)
SPECIALS = (0, -0.0, math.nan, math.inf, -math.inf)


def nodes(node, path=()):
    """(path, value) of every node of a JSON document below its root."""
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, value in children:
        yield (*path, key), value
        yield from nodes(value, (*path, key))


def is_number(value) -> bool:
    return type(value) in (int, float)


DELETE = object()


def replaced(doc, path, value):
    """A copy of doc with the node at path set to value, or deleted where
    value is DELETE."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def mutant(text: str, kind: str, rng: random.Random) -> tuple[str, str]:
    """(mutated file text, what was done) of one mutation of kind."""
    if kind == "truncate file":
        cut = rng.randrange(len(text))
        return text[:cut], f"cut at byte {cut}"
    doc = json.loads(text)
    everything = list(nodes(doc))
    if kind == "delete key":
        path, _ = rng.choice([(p, v) for p, v in everything if isinstance(p[-1], str)])
        return json.dumps(replaced(doc, path, DELETE), indent=1), f"deleted {path}"
    if kind == "swap type":
        path, value = rng.choice(everything)
        other = rng.choice([t for t in OTHER_TYPES if type(t) is not type(value)])
        return json.dumps(replaced(doc, path, other), indent=1), f"{path} = {other!r}"
    if kind == "truncate array":
        path, value = rng.choice([(p, v) for p, v in everything if isinstance(v, list) and v])
        keep = rng.randrange(len(value))
        return json.dumps(replaced(doc, path, value[:keep]), indent=1), f"{path}[:{keep}]"
    path, value = rng.choice([(p, v) for p, v in everything if is_number(v)])
    new = value * 1e300 if kind == "scale by 1e300" else rng.choice(SPECIALS)
    return json.dumps(replaced(doc, path, new), indent=1), f"{path} = {new!r}"


@pytest.fixture(scope="module")
def model_texts(tmp_path_factory):
    """The fixture's format-1 file, and a format-2 file freshly saved by
    `pbp train` with two hidden layers, both for two input features."""
    fresh = tmp_path_factory.mktemp("fresh") / "m.json"
    code = main(["train", "--data", str(FIXTURES / "toy.csv"), "--hidden", "3", "3",
                 "--epochs", "1", "--out", str(fresh)])
    assert code == EXIT_OK
    return {"model_v1.json": (FIXTURES / "model_v1.json").read_text(), "fresh": fresh.read_text()}


@pytest.mark.parametrize("name", ["model_v1.json", "fresh"])
def test_mutated_model_files_fail_cleanly_or_predict_finite_values(
    name, model_texts, tmp_path, capsys
):
    rng = random.Random(f"{name} 10")
    model, out = tmp_path / "m.json", tmp_path / "p.csv"
    n_rows = len(FEATURES.read_text().splitlines()) - 1
    codes = []
    for i in range(MUTANTS_PER_FILE):
        kind = KINDS[i % len(KINDS)]
        text, what = mutant(model_texts[name], kind, rng)
        model.write_text(text)
        out.unlink(missing_ok=True)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(["predict", "--model", str(model), "--data", str(FEATURES),
                             "--out", str(out)])
            except Exception as exc:  # what the `pbp` script would print as a traceback
                pytest.fail(f"mutant {i} ({kind}: {what}) raised {exc!r}")
        printed = capsys.readouterr()
        label = f"mutant {i} ({kind}: {what}): exit {code}, stderr {printed.err!r}"
        assert not caught, f"{label}: warned {[str(w.message) for w in caught]}"
        assert code in (EXIT_OK, EXIT_DATA, EXIT_NUMERIC), label
        assert printed.out == "", label
        if code == EXIT_OK:
            assert printed.err == "", label
            with open(out, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["mean", "variance"] and len(rows) == n_rows + 1, label
            assert all(math.isfinite(float(x)) for row in rows[1:] for x in row), label
        else:
            assert len(printed.err.splitlines()) == 1 and printed.err.endswith("\n"), label
            prefix = "data error: " if code == EXIT_DATA else "numeric failure: "
            assert printed.err.startswith(prefix), label
            assert not out.exists(), label
        codes.append(code)
    # The mutants reach all three outcomes.
    assert set(codes) == {EXIT_OK, EXIT_DATA, EXIT_NUMERIC}
