"""Gaussian predictive distributions and test metrics in original units, of
every run of a PosteriorStack at once; a lone model is a stack of one."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, NormStats
from .forward import forward_output_moments
from .kernel import LOG_2PI
from .posterior import NumericError, PbpConfig, PosteriorStack


@dataclass
class TrainedModel:
    """A trained posterior, a stack of one, bundled with its normalization
    statistics."""

    stack: PosteriorStack
    norm: NormStats
    config: PbpConfig


def noise_floor(stack: PosteriorStack) -> np.ndarray:
    """Each run's observation-noise variance implied by its Gamma posterior
    (normalized target units): rate / (shape - 1), the Gaussian-collapse
    variance; shape (R,)."""
    shape, rate = stack.gamma
    if (shape <= 1.0).any():
        raise ValueError(f"noise Gamma shape {shape.min()} <= 1: posterior not trained")
    return rate / (shape - 1.0)


def predict_batch(
    stack: PosteriorStack,
    norm: NormStats,
    X_raw: np.ndarray,
    labels: list[str] | None = None,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Predictive means and variances in original target units, shape (R, n):
    run r's for its n rows of raw inputs X_raw[r], X_raw of shape (R, n, d),
    normalized with run r's statistics of norm, those of a stack of R runs
    (see normalize), or one run's for every run.

    Raises NumericError naming the first row whose mean or variance is not
    finite (inputs or weights too large for the arithmetic), and its run by
    labels[r]. Without labels a run is "run <r>", and the run of a stack of
    one goes unnamed. Run r's row i is "data row rows[r, i]" where rows, (R,
    n), gives the rows' places in their data set, else "input row i + 1".
    """
    runs = stack.means.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        X = norm.apply_features(np.asarray(X_raw, dtype=float))
        mz, vz = forward_output_moments(stack, X)
        # Each run's scalars as a lone run computes them: target_std ** 2 is
        # a Python float power, which need not round as numpy's square does.
        std = np.reshape(norm.target_std, (-1, 1))
        mean = np.reshape(norm.target_mean, (-1, 1))
        std_sq = np.array([[s**2] for s in std[:, 0].tolist()])
        means = mz * std + mean
        variances = (noise_floor(stack)[:, None] + vz) * std_sq
    bad = ~(np.isfinite(means) & np.isfinite(variances))
    if bad.any():
        r, i = np.unravel_index(np.argmax(bad), bad.shape)
        if labels is None and runs > 1:
            labels = [f"run {k}" for k in range(runs)]
        row = f"input row {i + 1}" if rows is None else f"data row {rows[r, i]}"
        row = row if labels is None else f"{labels[r]}, {row}"
        raise NumericError(
            f"{row}: predictive mean {float(means[r, i])!r} and variance "
            f"{float(variances[r, i])!r} are not both finite"
        )
    return means, variances


def test_metrics(
    stack: PosteriorStack,
    norm: NormStats,
    test: Dataset,
    labels: list[str] | None = None,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each run's test RMSE of the predictive means and average log-density
    of the true targets under the predictive Gaussians, original units, both
    (R,) from one prediction: run r's on its test set, of the stack of test
    sets test ((R, n, d) features, (R, n) targets), normalized as in
    predict_batch. labels and rows name the runs and rows as there."""
    if len(test) == 0:
        raise ValueError("empty test set")
    means, variances = predict_batch(stack, norm, test.features, labels, rows)
    logp = -0.5 * (LOG_2PI + np.log(variances) + (test.targets - means) ** 2 / variances)
    return rmse(means, test.targets), np.mean(logp, axis=-1)


def training_rmse(
    stack: PosteriorStack, features: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Each run's RMSE of its predictive means on normalized features,
    (R, n, d), against normalized targets, (R, n): one rows pass over the
    stack, (R,)."""
    means, _ = forward_output_moments(stack, features)
    return rmse(means, targets)


def rmse(means: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Root mean squared error over the last axis."""
    return np.sqrt(np.mean((means - targets) ** 2, axis=-1))
