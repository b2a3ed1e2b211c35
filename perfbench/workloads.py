"""Workload definitions: seeded synthetic data with UCI shapes, the CLI
commands each workload runs, and the checks on what those commands write.

The UCI files are not available offline, so every workload generates its CSVs
from a seed. The seed draws the sample; the regression function of each
dataset shape is fixed (drawn from a constant key), so the accuracy metrics
follow the program rather than the luck of the draw.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Key of the fixed regression functions; independent of the workload seed.
TEACHER_KEY = 20150213
TEACHER_UNITS = 8
TEACHER_REFERENCE_ROWS = 20_000

# The CLI's defaults for the split protocol, mirrored by the output checks.
TEST_FRACTION = 0.1


@dataclass(frozen=True)
class DataShape:
    """A UCI-shaped regression dataset: size, target scale and noise share."""

    key: int
    rows: int
    features: int
    target_mean: float
    target_sd: float
    noise: float  # share of the target standard deviation that is noise
    linear_share: float = 0.2  # share of the signal variance that is linear
    integer_targets: bool = False


BOSTON = DataShape(key=1, rows=506, features=13, target_mean=22.5, target_sd=9.2, noise=0.45)
YACHT = DataShape(
    key=2, rows=308, features=6, target_mean=10.5, target_sd=15.0, noise=0.1, linear_share=0.8,
)
WINE = DataShape(
    key=3, rows=1599, features=11, target_mean=5.6, target_sd=0.8, noise=0.5,
    integer_targets=True,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    data: DataShape
    hidden: tuple[int, ...]
    epochs: int
    predict_rows: int
    splits: int = 0       # > 0: run `pbp benchmark` with this many splits
    repetitions: int = 0  # > 0: run `pbp active --policy both`
    initial_train: int = 20
    test_size: int = 100
    acquisitions: int = 9


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="boston_splits",
            why="20-split pbp benchmark on Boston-shaped data, then train and predict: "
            "per-example ADF dominates and the split axis is the one a batched engine spans",
            data=BOSTON,
            hidden=(50,),
            epochs=2,
            splits=20,
            predict_rows=40_000,
        ),
        Workload(
            name="yacht_active",
            why="pbp active on Yacht-shaped data: hundreds of tiny trainings, so EP refresh, "
            "prior incorporation, normalize and small-batch prediction weigh most",
            data=YACHT,
            hidden=(10,),
            epochs=4,
            repetitions=10,
            predict_rows=40_000,
        ),
        Workload(
            name="wine_deep",
            why="one pbp train at hidden (50, 50) on Wine-shaped data and a 40k-row pbp predict: "
            "large-batch forward pass, CSV I/O and model files, no cross-run batching",
            data=WINE,
            hidden=(50, 50),
            epochs=2,
            predict_rows=40_000,
        ),
    )
}


# ---------------------------------------------------------------- data


def _teacher(shape: DataShape):
    """The fixed feature layout and regression function of one dataset shape.

    Returns the latent mixing, per-column scale and offset of the raw
    features, and the signal: a standardized blend of a small tanh network and
    a linear map of the latent features.
    """
    rng = np.random.default_rng([TEACHER_KEY, shape.key])
    d = shape.features
    mixing = np.eye(d) + 0.3 * rng.standard_normal((d, d)) / math.sqrt(d)
    scale = 10.0 ** rng.uniform(-1.0, 2.0, d)
    offset = rng.uniform(-1.0, 3.0, d) * scale
    w1 = rng.standard_normal((d, TEACHER_UNITS)) * (1.5 / math.sqrt(d))
    b1 = rng.standard_normal(TEACHER_UNITS) * 0.5
    w2 = rng.standard_normal(TEACHER_UNITS)
    w_lin = rng.standard_normal(d)

    def parts(latent):
        return np.tanh(latent @ w1 + b1) @ w2, latent @ w_lin

    reference = parts(rng.standard_normal((TEACHER_REFERENCE_ROWS, d)) @ mixing)
    moments = [(p.mean(), p.std()) for p in reference]
    weights = (math.sqrt(1.0 - shape.linear_share), math.sqrt(shape.linear_share))

    def signal(latent):
        return sum(w * (p - mu) / sd for w, p, (mu, sd) in zip(weights, parts(latent), moments))

    return mixing, scale, offset, signal


def _sample(shape: DataShape, rng: np.random.Generator, n: int):
    """Raw features and targets of n rows drawn from the dataset's distribution."""
    mixing, scale, offset, signal = _teacher(shape)
    latent = rng.standard_normal((n, shape.features)) @ mixing
    y = shape.target_mean + shape.target_sd * (
        math.sqrt(1.0 - shape.noise**2) * signal(latent) + shape.noise * rng.standard_normal(n)
    )
    if shape.integer_targets:
        y = np.round(y)
    return offset + scale * latent, y


def make_dataset(shape: DataShape, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw features and targets of the training CSV, a function of the seed alone."""
    return _sample(shape, np.random.default_rng([seed, shape.key, 0]), shape.rows)


def make_held_out(shape: DataShape, seed: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows for `pbp predict`: the program sees the features, never the targets."""
    return _sample(shape, np.random.default_rng([seed, shape.key, 1]), rows)


def _write_matrix(path: Path, header: list[str], matrix: np.ndarray) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(format(v, ".6g") for v in row) for row in matrix.tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def input_files(out_dir: Path) -> dict[str, Path]:
    return {"data": out_dir / "data.csv", "predict": out_dir / "predict_in.csv"}


def write_inputs(workload: Workload, seed: int, out_dir: Path) -> dict[str, Path]:
    """Generate and write the CSVs the workload's commands read."""
    shape = workload.data
    features, targets = make_dataset(shape, seed)
    names = [f"x{i + 1}" for i in range(shape.features)]
    files = input_files(out_dir)
    _write_matrix(files["data"], names + ["y"], np.column_stack([features, targets]))
    _write_matrix(
        files["predict"],
        names,
        make_held_out(shape, seed, workload.predict_rows)[0],
    )
    return files


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------- commands


@dataclass(frozen=True)
class Command:
    kind: str           # benchmark | active | train | predict
    argv: list[str]
    updates: int        # likelihood-factor updates the command performs
    predict_rows: int   # rows the command writes predictions for


def _n_train(rows: int) -> int:
    return math.ceil(rows * (1.0 - TEST_FRACTION))


def commands(workload: Workload, files: dict[str, Path], out_dir: Path, seed: int) -> list[Command]:
    """The CLI invocations of one workload execution, in order."""
    w = workload
    data = str(files["data"])
    hidden = ["--hidden", *map(str, w.hidden)]
    common = ["--data", data, *hidden, "--epochs", str(w.epochs), "--seed", str(seed)]
    n_train = _n_train(w.data.rows)
    cmds = []
    if w.splits:
        cmds.append(Command(
            "benchmark",
            ["benchmark", *common, "--splits", str(w.splits), "--jobs", "1",
             "--out", str(out_dir / "bench.csv")],
            updates=w.splits * n_train * w.epochs,
            predict_rows=0,
        ))
    if w.repetitions:
        sizes = sum(w.initial_train + k for k in range(w.acquisitions + 1))
        cmds.append(Command(
            "active",
            ["active", *common, "--policy", "both", "--initial-train", str(w.initial_train),
             "--test-size", str(w.test_size), "--acquisitions", str(w.acquisitions),
             "--repetitions", str(w.repetitions), "--jobs", "1",
             "--out", str(out_dir / "curve")],
            updates=2 * w.repetitions * sizes * w.epochs,
            predict_rows=0,
        ))
    cmds.append(Command(
        "train",
        ["train", *common, "--out", str(out_dir / "model.json")],
        updates=n_train * w.epochs,
        predict_rows=0,
    ))
    cmds.append(Command(
        "predict",
        ["predict", "--model", str(out_dir / "model.json"), "--data", str(files["predict"]),
         "--out", str(out_dir / "pred.csv")],
        updates=0,
        predict_rows=w.predict_rows,
    ))
    return cmds


# ---------------------------------------------------------------- outputs


def _csv_numbers(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _json_numbers(node, out: list[float]) -> None:
    if isinstance(node, dict):
        for value in node.values():
            _json_numbers(value, out)
    elif isinstance(node, list):
        for value in node:
            _json_numbers(value, out)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out.append(float(node))


# Lines of `pbp train` stdout that are results; `seconds` is a timing.
TRAIN_KEYS = (
    "epochs_run", "examples_skipped", "undo_events", "weight_updates",
    "final_train_rmse_normalized", "test_rmse", "test_log_likelihood",
)


def parse_train_stdout(text: str) -> dict[str, float]:
    values = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if key in TRAIN_KEYS:
            values[key] = float(value)
    missing = [k for k in TRAIN_KEYS if k not in values]
    if missing:
        raise ValueError(f"train output lacks {missing}")
    return values


def read_outputs(kind: str, out_dir: Path, stdout: str) -> dict[str, np.ndarray]:
    """Every number a command produced, grouped by output file."""
    if kind == "benchmark":
        _, rows = _csv_numbers(out_dir / "bench.csv")
        return {"benchmark": np.array([float(c) for r in rows for c in r[1:] if c])}
    if kind == "active":
        return {
            f"active_{policy}": np.array(
                [float(c) for r in _csv_numbers(out_dir / f"curve_{policy}.csv")[1] for c in r]
            )
            for policy in ("active", "random")
        }
    if kind == "train":
        model: list[float] = []
        _json_numbers(json.loads((out_dir / "model.json").read_text(encoding="utf-8")), model)
        train = parse_train_stdout(stdout)
        return {
            "train": np.array([train[k] for k in TRAIN_KEYS]),
            "model": np.array(model),
        }
    if kind == "predict":
        _, rows = _csv_numbers(out_dir / "pred.csv")
        return {"predict": np.array([[float(c) for c in r] for r in rows]).reshape(-1)}
    raise ValueError(kind)


@dataclass(frozen=True)
class Truth:
    """What the checks compare against: the training CSV's targets, and the
    held-out targets of the rows given to `pbp predict`."""

    targets: np.ndarray
    held_out: np.ndarray

    @classmethod
    def load(cls, workload: Workload, files: dict[str, Path], seed: int) -> "Truth":
        targets = np.loadtxt(files["data"], delimiter=",", skiprows=1)[:, -1]
        held_out = make_held_out(workload.data, seed, workload.predict_rows)[1]
        return cls(targets, held_out)


def _rmse(pred, truth) -> float:
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def _split_indices(n: int, seed: int):
    perm = np.random.default_rng(seed).permutation(n)
    n_train = _n_train(n)
    return perm[:n_train], perm[n_train:]


def check_outputs(
    workload: Workload, cmd: Command, outputs: dict[str, np.ndarray], truth: Truth, seed: int,
) -> list[str]:
    """Problems with one command's outputs; empty when they are correct.

    Every number must be finite, and every test RMSE must beat predicting the
    training mean on the same split. The splits follow the CLI protocol: a
    permutation from default_rng(seed), the first ceil(0.9 n) rows for
    training (`benchmark` uses seed + split; each `active` repetition trains
    on the first `initial_train` rows of default_rng(seed + rep).permutation(n)
    and tests on the next `test_size`). `predict` is scored on the held-out
    rows against the mean of the `train` split.
    """
    problems = [
        f"{cmd.kind}: non-finite values in {group}"
        for group, values in outputs.items()
        if values.size == 0 or not np.all(np.isfinite(values))
    ]
    if problems:
        return problems
    y = truth.targets
    n = y.shape[0]

    def mean_predictor(tr, te) -> float:
        return _rmse(y[tr].mean(), y[te])

    if cmd.kind == "benchmark":
        per_split = outputs["benchmark"][: 2 * workload.splits].reshape(workload.splits, 2)
        for s, (rmse, _) in enumerate(per_split):
            baseline = mean_predictor(*_split_indices(n, seed + s))
            if not rmse < baseline:
                problems.append(f"benchmark split {s}: rmse {rmse} >= mean predictor {baseline}")
    elif cmd.kind == "active":
        baselines = []
        for rep in range(workload.repetitions):
            perm = np.random.default_rng(seed + rep).permutation(n)
            tr = perm[: workload.initial_train]
            te = perm[workload.initial_train : workload.initial_train + workload.test_size]
            baselines.append(mean_predictor(tr, te))
        final = float(outputs["active_active"].reshape(-1, 3)[-1, 1])
        if not final < np.mean(baselines):
            problems.append(f"active: final rmse {final} >= mean predictor {np.mean(baselines)}")
    elif cmd.kind == "train":
        rmse = outputs["train"][TRAIN_KEYS.index("test_rmse")]
        baseline = mean_predictor(*_split_indices(n, seed))
        if not rmse < baseline:
            problems.append(f"train: test rmse {rmse} >= mean predictor {baseline}")
    elif cmd.kind == "predict":
        pred = outputs["predict"].reshape(-1, 2)
        if pred.shape[0] != truth.held_out.shape[0]:
            problems.append(f"predict: {pred.shape[0]} rows, expected {truth.held_out.shape[0]}")
        elif not np.all(pred[:, 1] > 0.0):
            problems.append("predict: non-positive predictive variance")
        else:
            rmse = _rmse(pred[:, 0], truth.held_out)
            baseline = _rmse(y[_split_indices(n, seed)[0]].mean(), truth.held_out)
            if not rmse < baseline:
                problems.append(f"predict: held-out rmse {rmse} >= mean predictor {baseline}")
    return problems


def accuracy(outputs: dict[str, np.ndarray], truth: Truth) -> tuple[float, float]:
    """(test_rmse, test_nll) of the `pbp predict` output on the held-out rows.

    test_nll is the mean negative log density of the held-out targets under
    the predictive Gaussians, in nats.
    """
    pred = outputs["predict"].reshape(-1, 2)
    mean, var = pred[:, 0], pred[:, 1]
    nll = 0.5 * (np.log(2.0 * math.pi * var) + (truth.held_out - mean) ** 2 / var)
    return _rmse(mean, truth.held_out), float(np.mean(nll))


# ---------------------------------------------------------------- reference

SAMPLE_SIZE = 256


def summarize(outputs: dict[str, np.ndarray]) -> dict[str, dict]:
    """A compact record of an execution's outputs: digest, sums, strided sample."""
    summary = {}
    for group, values in outputs.items():
        stride = max(1, math.ceil(values.size / SAMPLE_SIZE))
        summary[group] = {
            "n": int(values.size),
            "sha256": hashlib.sha256(values.tobytes()).hexdigest(),
            "sum": float(values.sum()),
            "sumsq": float(np.square(values).sum()),
            "sample": values[::stride].tolist(),
        }
    return summary


def max_rel_dev(outputs: dict[str, np.ndarray], reference: dict[str, dict]) -> float:
    """Largest relative deviation of the outputs from a recorded summary.

    0 when every output group is bit-identical. Otherwise the largest
    |a - b| / max(|a|, |b|) over the strided sample and the two sums; 1 when
    the groups or their sizes differ.
    """
    if set(outputs) != set(reference):
        return 1.0
    worst = 0.0
    for group, ref in reference.items():
        values = outputs[group]
        if values.size != ref["n"]:
            return 1.0
        if hashlib.sha256(values.tobytes()).hexdigest() == ref["sha256"]:
            continue
        stride = max(1, math.ceil(values.size / SAMPLE_SIZE))
        pairs = list(zip(values[::stride].tolist(), ref["sample"]))
        pairs += [(float(values.sum()), ref["sum"]), (float(np.square(values).sum()), ref["sumsq"])]
        for a, b in pairs:
            scale = max(abs(a), abs(b))
            if scale > 0.0:
                worst = max(worst, abs(a - b) / scale)
    return worst
