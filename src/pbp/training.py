"""Training orchestration: prior incorporation, per-example ADF sweeps, and
the per-pass EP refresh of the stored prior sites.

Independent runs of one architecture (benchmark splits, active-learning
repetitions) train in lockstep as a PosteriorStack: every run takes its t-th
example in the same step. A stack of enough runs trains in run groups, each
a stack of its own, on every usable CPU (see train_runs). Each run's
arithmetic is exactly that of training it alone. `train` is the one-run
case.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .forward import _run_items, run_groups
from .posterior import (
    HYPERPRIOR,
    NumericError,
    PbpConfig,
    PosteriorStack,
    new_uniform,
    perturb_means,
)
from .updates import (
    ep_refresh_prior,
    incorporate_all_prior_factors,
    incorporate_likelihood_factors,
)

# Abort threshold: fraction of examples skipped (non-finite log Z) per epoch.
MAX_SKIP_RATE = 0.01


class SkipRateError(Exception):
    """Too many examples produced a non-finite normalizer in one epoch."""


@dataclass
class TrainReport:
    """Counters and per-epoch diagnostics from one training run."""

    epochs_run: int = 0
    examples_skipped: int = 0
    undo_events: int = 0
    weight_updates: int = 0
    seconds: float = 0.0  # wall time of the batch the run was trained in
    # One (sites skipped, max abs change) per EP refresh of the prior sites.
    refreshes: list[tuple[int, float]] = field(default_factory=list)


@contextmanager
def _naming_the_run(labels: list[str]):
    """Re-raise an error of the kernel that names the run of the stack it
    arose in (kernel.c's noise step and EP refresh do) with that run's label
    in front: `split 2: float division by zero`."""
    try:
        yield
    except (ArithmeticError, NumericError) as error:
        run = getattr(error, "run", None)
        if run is None:
            raise
        raise type(error)(f"{labels[run]}: {error}") from None


def check_variances(stack: PosteriorStack, labels: list[str], epoch: int) -> None:
    """NumericError naming the first run, by its label, whose weight
    variances are not all finite and positive, and the epoch."""
    valid = (stack.variances > 0.0) & (stack.variances < np.inf)
    if not valid.all():
        r = int(np.argmin(valid.all(axis=-1)))
        raise NumericError(
            f"{labels[r]}: {np.count_nonzero(~valid[r])} weight variances not finite and "
            f"positive after epoch {epoch}"
        )


def train(
    dataset: Dataset, config: PbpConfig, rng: np.random.Generator
) -> tuple[PosteriorStack, np.ndarray, TrainReport]:
    """Run the full sequential-update schedule on a normalized training set.

    Schedule: absorb the Gamma hyperpriors exactly, ADF-incorporate every
    weight-prior factor once, perturb the means to break symmetry, then for
    each epoch shuffle the examples, incorporate each likelihood factor once,
    and refresh the stored prior sites after the last. No rows pass runs:
    a caller that wants the training RMSE takes it from the posterior
    (prediction.training_rmse). Returns the posterior, a stack of one, its
    (4, W) prior sites (see incorporate_all_prior_factors) and the report.
    """
    stack, sites, [report] = train_runs(Dataset.of([dataset]), config, [rng])
    return stack, sites[:, 0], report


def train_runs(
    train: Dataset,
    config: PbpConfig,
    rngs: list[np.random.Generator],
    labels: list[str] | None = None,
) -> tuple[PosteriorStack, np.ndarray, list[TrainReport]]:
    """Train one posterior per run of a stack of normalized training sets,
    (R, n, d) features and (R, n) targets, all in lockstep; see `train`.
    Returns the trained stack, its (4, R, W) prior sites and each run's
    report.

    Run r draws only from rngs[r], in the order a lone run would: the mean
    perturbation, then one permutation per epoch, all drawn before the first
    epoch. labels name the runs (default "run <r>") in a SkipRateError, in
    the NumericError of check_variances, which runs at the end of every
    epoch, and in front of an error of the kernel that names its run.

    A stack of more than one run group (forward.run_groups) trains each
    group on a copy of its rows and sites, one job per group on every usable
    CPU (forward._run_items), and takes the rows back once all have trained;
    where one raises, the untouched stack trains again on the calling
    thread, which raises the error, and names the run, of one CPU.
    """
    start = time.perf_counter()
    features, targets = train.features, train.targets
    if features.ndim != 3 or targets.shape != features.shape[:2]:
        raise ValueError(
            f"features of shape {features.shape} and targets of shape {targets.shape} are not "
            "runs of equal training-set sizes, (R, n, d) and (R, n)"
        )
    runs, n = targets.shape
    if n == 0:
        raise ValueError("empty training set")
    if len(rngs) != runs:
        raise ValueError(f"{len(rngs)} rngs for {runs} runs")
    labels = labels or [f"run {r}" for r in range(runs)]

    layer_sizes = [features.shape[-1], *config.hidden_layer_sizes, 1]
    stack = new_uniform(layer_sizes, runs)
    # Hyperprior factors match the posterior family; absorbing them is exact.
    stack.gamma[...] = stack.lam[...] = np.reshape(HYPERPRIOR, (2, 1))
    with _naming_the_run(labels):
        sites = incorporate_all_prior_factors(stack)
        perturb_means(stack, rngs)
    orders = np.empty((config.epochs, runs, n), dtype=np.intp)
    for order in orders:
        order[...] = [rng.permutation(n) for rng in rngs]

    groups = run_groups(runs)
    reports = _train_in_groups(stack, sites, train, orders, labels, groups) if len(groups) > 1 else None
    if reports is None:
        reports = _train_epochs(stack, sites, train, orders, labels)
    seconds = time.perf_counter() - start
    for report in reports:
        report.seconds = seconds
    return stack, sites, reports


def _train_epochs(
    stack: PosteriorStack, sites: np.ndarray, train: Dataset, orders: np.ndarray, labels: list[str]
) -> list[TrainReport]:
    """train_runs' epochs on a stack whose prior factors are in and means
    perturbed, and its sites: epoch e takes run r's examples in the order
    orders[e - 1, r]. Returns each run's report, its seconds not set."""
    runs, n = train.targets.shape
    reports = [TrainReport() for _ in range(runs)]
    run_index = np.arange(runs)[:, None]
    with _naming_the_run(labels):
        for epoch, order in enumerate(orders, 1):
            # Step-major copies: row t holds every run's t-th example.
            xs = np.ascontiguousarray(train.features[run_index, order].swapaxes(0, 1))
            ys = np.ascontiguousarray(train.targets[run_index, order].T)
            outcome = incorporate_likelihood_factors(stack, xs, ys)
            refresh = ep_refresh_prior(stack, sites)
            check_variances(stack, labels, epoch)
            counts = np.array([outcome.skipped, outcome.undo_count, outcome.weight_updates]).T.tolist()
            for report, (skipped, undone, updated), run_refresh in zip(reports, counts, refresh.runs):
                report.epochs_run += 1
                report.examples_skipped += skipped
                report.undo_events += undone
                report.weight_updates += updated
                report.refreshes.append(run_refresh)
            for label, (skipped, _, _) in zip(labels, counts):
                if skipped > MAX_SKIP_RATE * n:
                    raise SkipRateError(f"{label}: {skipped}/{n} examples skipped in epoch {epoch}")
    return reports


def _train_in_groups(
    stack: PosteriorStack, sites: np.ndarray, train: Dataset, orders: np.ndarray,
    labels: list[str], groups: list[slice],
) -> list[TrainReport] | None:
    """_train_epochs of each run group on a copy of its rows and sites, one
    job per group: each run's report, the trained rows written back into the
    stack and sites; or None, both untouched, where a group raised."""
    trained = [None] * len(groups)

    def train_group(k):
        part = groups[k]
        group, group_sites = stack.take(np.arange(part.start, part.stop)), sites[:, part].copy()
        group_train = Dataset(train.features[part], train.targets[part])
        try:
            reports = _train_epochs(group, group_sites, group_train, orders[:, part], labels[part])
        except (ArithmeticError, NumericError, SkipRateError):  # the caller's rerun raises it
            return
        trained[k] = group, group_sites, reports

    _run_items(train_group, range(len(groups)), True)
    if not all(trained):
        return None
    for part, (group, group_sites, _) in zip(groups, trained):
        stack.means[part], stack.variances[part] = group.means, group.variances
        stack.gamma[:, part], stack.lam[:, part] = group.gamma, group.lam
        sites[:, part] = group_sites
    return [report for *_, reports in trained for report in reports]
