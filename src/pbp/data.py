"""Dataset ingestion, normalization, split management, and model files."""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from . import kernel
from .posterior import HYPERPRIOR, PbpConfig, PosteriorStack, layer_views

# Format 1 files also hold the prior sites of training, which load_model
# ignores: prediction reads only the weight marginals and the noise Gamma.
MODEL_FORMAT_VERSION = 2
READABLE_FORMAT_VERSIONS = (1, 2)
# The fixed hyperprior, under the config keys model files give it.
_HYPERPRIOR_CONFIG = {
    "prior_shape_lambda": HYPERPRIOR[0],
    "prior_rate_lambda": HYPERPRIOR[1],
    "prior_shape_gamma": HYPERPRIOR[0],
    "prior_rate_gamma": HYPERPRIOR[1],
}


class DataError(Exception):
    """Malformed input data or model file."""


@dataclass
class Dataset:
    """Feature matrix plus target vector; column names kept when available.

    A stack of R data sets of n rows each, one per run, holds (R, n, d)
    features and (R, n) targets; its length is n.
    """

    features: np.ndarray
    targets: np.ndarray
    columns: list[str] | None = None

    def __len__(self) -> int:
        return self.targets.shape[-1]

    @classmethod
    def of(cls, datasets: list[Dataset]) -> Dataset:
        """Stack copies of data sets of equal sizes, with the first's columns."""
        return cls(
            np.stack([ds.features for ds in datasets]), np.stack([ds.targets for ds in datasets]),
            datasets[0].columns,
        )


@dataclass
class NormStats:
    """Training-set normalization statistics (population standard deviations).

    Constant columns get a standard deviation of 1, which maps them to all
    zeros instead of dividing by zero. The statistics of a stack of runs
    carry a leading runs axis: (R, d) feature means and standard deviations,
    (R,) target means and standard deviations; a lone run's target statistics
    are floats.
    """

    feature_mean: np.ndarray
    feature_std: np.ndarray
    target_mean: float | np.ndarray
    target_std: float | np.ndarray

    def apply_features(self, x: np.ndarray) -> np.ndarray:
        """Rows x, (n, d), or (R, n, d) for the statistics of R runs."""
        return (x - self.feature_mean[..., None, :]) / self.feature_std[..., None, :]

    def apply(self, dataset: Dataset) -> Dataset:
        return Dataset(
            features=self.apply_features(dataset.features),
            targets=(dataset.targets - np.expand_dims(self.target_mean, -1))
            / np.expand_dims(self.target_std, -1),
            columns=dataset.columns,
        )


def _parse_cell(cell: str, row: int, col: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"non-numeric cell at row {row}, column {col}: {cell!r}") from None
    if not math.isfinite(value):
        raise DataError(f"non-finite value at row {row}, column {col}: {cell!r}")
    return value


# A line of a CSV's bytes, ended as the csv module, reading a file opened
# with newline="", finds the end of a line: "\n", "\r\n", "\r" or the end.
_LINE = re.compile(rb"[^\r\n]+\Z|[^\r\n]*(?:\r\n?|\n)")


def _header(first: list[str]) -> list[str] | None:
    """The header a first row makes: its stripped cells, when any of them
    fails to parse as a number."""
    try:
        [float(cell) for cell in first]
    except ValueError:
        return [cell.strip() for cell in first]
    return None


def _kernel_read(text: bytes) -> tuple[np.ndarray, list[str] | None] | None:
    """The matrix and header of the CSV bytes text where kernel.read_rows
    reads its data rows, else None. The header is decided from the first
    non-empty csv row, whose lines alone are decoded."""
    end = 0

    def lines():
        nonlocal end
        for line in _LINE.finditer(text):
            end = line.end()
            yield line.group().decode()

    try:
        first = next(filter(None, csv.reader(lines())), None)
    except UnicodeDecodeError:  # the csv-module fallback reports it
        return None
    if first is None:
        return None
    header = _header(first)
    data = kernel.read_rows(text, end if header is not None else 0)
    return None if data is None else (data, header)


def read_csv_matrix(path) -> tuple[np.ndarray, list[str] | None]:
    """Read a numeric CSV with an optional single header row.

    The first row is treated as a header when any of its cells fails to parse
    as a number. Ragged rows and non-finite cells are rejected with row/column
    diagnostics (1-based, header included in the numbering).

    The file is read once, as bytes, and its data rows handed to
    kernel.read_rows, which reads plain decimal cells in one pass and holds
    no Python string per cell. Any file it refuses (quoted cells, a '#' or
    whitespace-only line, digits that only Python's float reads, a long
    cell, a non-ASCII byte) or any non-finite value goes to the exact
    csv-module parser below, so the values accepted and the diagnostics
    given are those of that parser alone, except that a byte that is not
    UTF-8 is a DataError naming the file, the byte and its offset in the
    file. A field over the csv module's size limit is a DataError too.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read()
        read = _kernel_read(text)
        if read is not None:
            return read
        # The bytes read, decoded whole: the text reading the file in text
        # mode gives, and an undecodable byte's offset in the file.
        try:
            decoded = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{path}: byte 0x{text[exc.start]:02x} at offset {exc.start} is not UTF-8 "
                f"({exc.reason})"
            ) from None
        rows = [row for row in csv.reader(io.StringIO(decoded, newline="")) if row]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: empty file")
    header = _header(rows[0])
    if header is not None:
        rows = rows[1:]
        if not rows:
            raise DataError(f"{path}: header but no data rows")

    # Parse cell by cell, so the first bad row or cell is the one reported.
    offset = 2 if header is not None else 1
    width = len(rows[0])
    data = np.empty((len(rows), width))
    for r, row in enumerate(rows):
        if len(row) != width:
            raise DataError(
                f"{path}: row {r + offset} has {len(row)} cells, expected {width}"
            )
        for c, cell in enumerate(row):
            data[r, c] = _parse_cell(cell, r + offset, c + 1)
    return data, header


def resolve_target_column(
    target: str | int, width: int, header: list[str] | None
) -> int:
    """Target selector: a header name, an integer index, or 'last'."""
    if isinstance(target, int):
        idx = target
    else:
        name = target.strip()
        if name.lower() == "last":
            return width - 1
        if header is not None and name in header:
            return header.index(name)
        try:
            idx = int(name)
        except ValueError:
            raise DataError(f"no column named {name!r}") from None
    if not -width <= idx < width:
        raise DataError(f"target column {target} out of range for {width} columns")
    return idx % width


def load_csv(path, target_column: str | int = "last") -> Dataset:
    """Load a numeric CSV and carve out the designated target column."""
    data, header = read_csv_matrix(path)
    if data.shape[1] < 2:
        raise DataError(f"{path}: need at least one feature and one target column")
    t = resolve_target_column(target_column, data.shape[1], header)
    mask = np.ones(data.shape[1], dtype=bool)
    mask[t] = False
    columns = None
    if header is not None:
        columns = [h for keep, h in zip(mask, header) if keep] + [header[t]]
    return Dataset(features=data[:, mask], targets=data[:, t], columns=columns)


def split(
    dataset: Dataset, test_fraction: float, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Seeded permutation split; the training side gets ceil(N*(1-f)) rows."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test fraction must be in (0, 1), got {test_fraction}")
    n = len(dataset)
    n_train = math.ceil(n * (1.0 - test_fraction))
    if n_train == 0 or n_train == n:
        raise DataError(f"degenerate split: {n_train} train of {n} rows")
    perm = rng.permutation(n)
    tr, te = perm[:n_train], perm[n_train:]
    return (
        Dataset(dataset.features[tr], dataset.targets[tr], dataset.columns),
        Dataset(dataset.features[te], dataset.targets[te], dataset.columns),
    )


def normalize(train: Dataset) -> tuple[Dataset, NormStats]:
    """Zero-mean unit-variance stats from the training set only.

    Raises DataError naming the column when a mean or standard deviation is
    not finite (values so large that the sums overflow), and when the
    targets' standard deviation underflows to 0 although they differ (values
    so small that their squares do).

    A stack of training sets gets each run's statistics, and normalized set,
    with the bits of normalizing that run alone; the DataError raised is the
    one the first failing run raises alone.
    """
    lone = train.targets.ndim == 1
    x = train.features[None] if lone else train.features
    y = train.targets[None] if lone else train.targets
    with np.errstate(over="ignore", invalid="ignore"):
        f_mean = x.mean(axis=1)
        f_std = x.std(axis=1)  # population formula
        t_mean = y.mean(axis=1)
        t_std = y.std(axis=1)
    finite = np.isfinite(f_mean) & np.isfinite(f_std)
    underflow = (t_std <= 0.0) & (y != y[:, :1]).any(axis=1)
    failing = ~finite.all(axis=1) | ~(np.isfinite(t_mean) & np.isfinite(t_std)) | underflow
    if failing.any():
        r = int(np.argmax(failing))
        _require_finite_stats(train.columns, f_mean[r], f_std[r], float(t_mean[r]), float(t_std[r]))
        what = f"target column {train.columns[-1]!r}" if train.columns else "target column"
        raise DataError(
            f"{what}: the values differ but their standard deviation underflows to 0; "
            "the values are too small to normalize"
        )
    # Constant columns (up to float summation noise): pin the mean to the
    # first row so they normalize to exactly zero, and divide by 1.
    constant = f_std <= np.maximum(np.abs(f_mean), 1.0) * 1e-13
    f_mean = np.where(constant, x[:, 0], f_mean)
    f_std = np.where(constant, 1.0, f_std)
    t_std = np.where(t_std <= 0.0, 1.0, t_std)
    if lone:
        stats = NormStats(f_mean[0], f_std[0], float(t_mean[0]), float(t_std[0]))
    else:
        stats = NormStats(f_mean, f_std, t_mean, t_std)
    return stats.apply(train), stats


def _require_finite_stats(columns, f_mean, f_std, t_mean, t_std) -> None:
    """DataError naming the first column whose mean or std is not finite.

    columns, when known, holds the feature names and then the target's.
    """
    bad = ~(np.isfinite(f_mean) & np.isfinite(f_std))
    if bad.any():
        j = int(np.argmax(bad))
        what = f"feature column {columns[j]!r}" if columns else f"feature column {j + 1}"
        mean, std = float(f_mean[j]), float(f_std[j])
    elif math.isfinite(t_mean) and math.isfinite(t_std):
        return
    else:
        what = f"target column {columns[-1]!r}" if columns else "target column"
        mean, std = t_mean, t_std
    raise DataError(
        f"{what}: mean {mean!r} and standard deviation {std!r} are not both finite; "
        "the values are too large to normalize"
    )


def _network_doc(stack: PosteriorStack) -> dict:
    """The network entry of a model file, of a stack of one."""
    sizes = stack.layer_sizes
    return {
        "layer_sizes": list(sizes),
        "layers": [
            {"means": means.tolist(), "variances": variances.tolist()}
            for means, variances in zip(
                layer_views(stack.means[0], sizes), layer_views(stack.variances[0], sizes)
            )
        ],
        "gamma": dict(zip(("shape", "rate"), stack.gamma[:, 0].tolist())),
        "lambda": dict(zip(("shape", "rate"), stack.lam[:, 0].tolist())),
    }


def _gamma_column(entry) -> list[list[float]]:
    """The (2, 1) shape and rate of a Gamma's entry in a model file, which
    holds the two as JSON numbers and nothing else."""
    if not isinstance(entry, dict) or entry.keys() != {"shape", "rate"}:
        raise ValueError(f"a Gamma entry holds a shape and a rate alone, got {entry!r}")
    values = [entry["shape"], entry["rate"]]
    # numpy's conversion would take "7" and [1.0] too.
    if not all(isinstance(value, (int, float)) for value in values):
        raise TypeError(f"Gamma shape and rate must be numbers, got {values!r}")
    return [[float(value)] for value in values]


def _stack_from_doc(doc: dict) -> PosteriorStack:
    """The stack of one of a model file's network entry. Raises ValueError
    where its layers are not the weight matrices its layer_sizes give."""
    sizes, layers = list(doc["layer_sizes"]), doc["layers"]
    if len(layers) != len(sizes) - 1:
        raise ValueError(f"layer_sizes {sizes} do not describe {len(layers)} layers")
    flat = {"means": [], "variances": []}
    for l, entry in enumerate(layers):
        expected = (sizes[l + 1], sizes[l] + 1)
        for name, arrays in flat.items():
            arr = np.array(entry[name], dtype=float)
            if arr.shape != expected:
                raise ValueError(f"layer {l} {name} have shape {arr.shape}, expected {expected}")
            arrays.append(arr.ravel())
    means, variances = (np.concatenate(arrays)[None] for arrays in flat.values())
    gamma, lam = (np.array(_gamma_column(doc[key])) for key in ("gamma", "lambda"))
    return PosteriorStack(means, variances, gamma, lam, sizes)


def save_model(model, path) -> None:
    """Write the trained model as versioned, human-diffable JSON.

    Floats round-trip exactly (shortest-representation encoding), so
    save -> load -> save is byte-identical.
    """
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "config": {
            "hidden_layer_sizes": list(model.config.hidden_layer_sizes),
            "epochs": model.config.epochs,
            **_HYPERPRIOR_CONFIG,
            "seed": model.config.seed,
        },
        "network": _network_doc(model.stack),
        "normalization": {
            "feature_mean": model.norm.feature_mean.tolist(),
            "feature_std": model.norm.feature_std.tolist(),
            "target_mean": model.norm.target_mean,
            "target_std": model.norm.target_std,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")


def load_model(path):
    """The TrainedModel a model file of a readable format holds. Raises
    DataError when the file cannot be read or parsed, is of another format, or
    holds an unusable model (see _model_problem)."""
    from .prediction import TrainedModel

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"corrupt model file {path}: {exc}") from exc

    version = doc.get("format_version") if isinstance(doc, dict) else None
    # A bool is an int, and True == 1: the type is checked first.
    if type(version) is not int or version not in READABLE_FORMAT_VERSIONS:
        raise DataError(
            f"{path}: model format version {version!r} not supported "
            f"(expected one of {READABLE_FORMAT_VERSIONS})"
        )
    try:
        cfg = doc["config"]
        config = PbpConfig(
            hidden_layer_sizes=tuple(cfg["hidden_layer_sizes"]),
            epochs=cfg["epochs"],
            seed=cfg["seed"],
        )
        hyperprior = {key: cfg[key] for key in _HYPERPRIOR_CONFIG}
        stack = _stack_from_doc(doc["network"])
        nm = doc["normalization"]
        norm = NormStats(
            feature_mean=np.array(nm["feature_mean"], dtype=float),
            feature_std=np.array(nm["feature_std"], dtype=float),
            target_mean=float(nm["target_mean"]),
            target_std=float(nm["target_std"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"corrupt model file {path}: {exc}") from exc
    problem = _model_problem(config, hyperprior, stack, norm)
    if problem:
        raise DataError(f"corrupt model file {path}: {problem}")
    return TrainedModel(stack=stack, norm=norm, config=config)


def _model_problem(
    config: PbpConfig, hyperprior: dict, stack: PosteriorStack, norm: NormStats
) -> str | None:
    """What makes a loaded model unusable, or None when it is sound.

    The config must give the fixed hyperprior and the network's hidden layer
    sizes, and every layer size must be an int. Every number must be finite,
    weight variances, Gamma parameters and normalization scales positive,
    and the noise Gamma shape above 1, as prediction needs.
    """
    if hyperprior != _HYPERPRIOR_CONFIG:
        return f"config hyperprior {hyperprior} is not the fixed {_HYPERPRIOR_CONFIG}"
    sizes = stack.layer_sizes
    hidden = list(config.hidden_layer_sizes)
    # A bool is an int, and 3.0 == 3 and True == 1: the types are checked.
    if not all(type(size) is int for size in [*sizes, *hidden]):
        return f"layer_sizes {sizes} and config hidden_layer_sizes {hidden} must hold integers"
    if len(sizes) < 2 or sizes[-1] != 1:
        return f"layer_sizes {sizes} do not end in one output"
    if hidden != sizes[1:-1]:
        return f"config hidden_layer_sizes {hidden} disagree with layer_sizes {sizes}"
    for name in ("means", "variances"):
        if not np.all(np.isfinite(getattr(stack, name))):
            return f"weight {name} hold a non-finite value"
    if not np.all(stack.variances > 0.0):
        return "a weight variance is not positive"
    for name, gamma in (("gamma", stack.gamma), ("lambda", stack.lam)):
        shape, rate = gamma[:, 0].tolist()
        if not (0.0 < shape < math.inf and 0.0 < rate < math.inf):
            return f"{name} shape and rate must be positive and finite, got {shape}, {rate}"
    if stack.gamma[0, 0] <= 1.0:
        return f"noise gamma shape {stack.gamma[0, 0]} <= 1: posterior not trained"
    for name in ("feature_mean", "feature_std"):
        arr = getattr(norm, name)
        if arr.shape != (sizes[0],):
            return f"{name} has shape {arr.shape}, expected ({sizes[0]},)"
        if not np.all(np.isfinite(arr)):
            return f"{name} holds a non-finite value"
    if not np.all(norm.feature_std > 0.0):
        return "feature_std holds a non-positive value"
    if not (math.isfinite(norm.target_mean) and 0.0 < norm.target_std < math.inf):
        return f"target mean {norm.target_mean} and std {norm.target_std} must be finite, std > 0"
    return None
