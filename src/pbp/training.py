"""Training orchestration: prior incorporation, per-example ADF sweeps, and
the per-pass EP refresh of the stored prior sites.

Independent runs of one architecture (benchmark splits, active-learning
repetitions) train in lockstep as a PosteriorStack: every run takes its t-th
example in the same step, the stack's run groups on every usable CPU (see
updates.incorporate_likelihood_factors). Each run's arithmetic is exactly
that of training it alone. `train` is the one-run case.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .posterior import (
    HYPERPRIOR,
    GammaDist,
    NetworkPosterior,
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
) -> tuple[NetworkPosterior, np.ndarray, TrainReport]:
    """Run the full sequential-update schedule on a normalized training set.

    Schedule: absorb the Gamma hyperpriors exactly, ADF-incorporate every
    weight-prior factor once, perturb the means to break symmetry, then for
    each epoch shuffle the examples, incorporate each likelihood factor once,
    and refresh the stored prior sites after the last. No rows pass runs:
    a caller that wants the training RMSE takes it from the posterior
    (prediction.training_rmse). Returns the posterior, its (4, W) prior
    sites (see incorporate_all_prior_factors) and the report.
    """
    stack, sites, [report] = train_runs(Dataset.of([dataset]), config, [rng])
    return stack.run(0), sites[:, 0], report


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
    perturbation, then one permutation per epoch. labels name the runs
    (default "run <r>") in a SkipRateError, in the NumericError of
    check_variances, which runs at the end of every epoch, and in front of
    an error of the kernel that names its run.
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
    net = new_uniform(layer_sizes)
    # Hyperprior factors match the posterior family; absorbing them is exact.
    net.gamma = GammaDist(*HYPERPRIOR)
    net.lam = GammaDist(*HYPERPRIOR)
    stack = PosteriorStack.of([net]).take(np.zeros(runs, dtype=np.intp))
    reports = [TrainReport() for _ in range(runs)]
    undo = np.zeros(runs, dtype=int)
    updates = np.zeros(runs, dtype=int)
    run_index = np.arange(runs)[:, None]

    with _naming_the_run(labels):
        sites = incorporate_all_prior_factors(stack)
        perturb_means(stack, rngs)

        for epoch in range(1, config.epochs + 1):
            order = np.stack([rng.permutation(n) for rng in rngs])
            # Step-major copies: row t holds every run's t-th example.
            xs = np.ascontiguousarray(features[run_index, order].swapaxes(0, 1))
            ys = np.ascontiguousarray(targets[run_index, order].T)
            outcome = incorporate_likelihood_factors(stack, xs, ys)
            skipped = outcome.skipped
            undo += outcome.undo_count
            updates += outcome.weight_updates
            refresh = ep_refresh_prior(stack, sites)
            check_variances(stack, labels, epoch)
            for report, run_refresh in zip(reports, refresh.runs):
                report.refreshes.append(run_refresh)

            for r, report in enumerate(reports):
                report.examples_skipped += int(skipped[r])
                report.epochs_run += 1
            for r in range(runs):
                if skipped[r] > MAX_SKIP_RATE * n:
                    raise SkipRateError(
                        f"{labels[r]}: {skipped[r]}/{n} examples skipped in epoch {epoch}"
                    )

    seconds = time.perf_counter() - start
    for r, report in enumerate(reports):
        report.undo_events = int(undo[r])
        report.weight_updates = int(updates[r])
        report.seconds = seconds
    return stack, sites, reports
