"""Training orchestration: prior incorporation, per-example ADF sweeps, and
the per-pass EP refresh of the stored prior sites.

Independent runs of one architecture (benchmark splits, active-learning
repetitions) train in lockstep as a PosteriorStack: every run takes its t-th
example in the same step. Each run's arithmetic is exactly that of training
it alone; `train` is the one-run case.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .forward import forward_output_moments
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
    epoch_rmse: list[float] = field(default_factory=list)
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
    and refresh the stored prior sites after the last. The per-epoch RMSE
    uses the predictive means on the (normalized) training targets. Returns
    the posterior, its (4, W) prior sites (see incorporate_all_prior_factors)
    and the report.
    """
    [(net, sites, report)] = train_runs([dataset], config, [rng])
    return net, sites, report


def train_runs(
    datasets: list[Dataset],
    config: PbpConfig,
    rngs: list[np.random.Generator],
    labels: list[str] | None = None,
) -> list[tuple[NetworkPosterior, np.ndarray, TrainReport]]:
    """Train one posterior per dataset, all in lockstep; see `train`.

    The datasets must have equal sizes. Run r draws only from rngs[r], in the
    order a lone run would: the mean perturbation, then one permutation per
    epoch. labels name the runs (default "run <r>") in a SkipRateError, in
    the NumericError of check_variances, which runs at the end of every
    epoch, and in front of an error of the kernel that names its run.
    """
    start = time.perf_counter()
    n = len(datasets[0].targets)
    if n == 0:
        raise ValueError("empty training set")
    if any(len(ds.targets) != n for ds in datasets):
        raise ValueError("runs trained together need equal training-set sizes")
    runs = len(datasets)
    if len(rngs) != runs:
        raise ValueError(f"{len(rngs)} rngs for {runs} runs")
    labels = labels or [f"run {r}" for r in range(runs)]

    layer_sizes = [datasets[0].features.shape[1], *config.hidden_layer_sizes, 1]
    net = new_uniform(layer_sizes)
    # Hyperprior factors match the posterior family; absorbing them is exact.
    net.gamma = GammaDist(*HYPERPRIOR)
    net.lam = GammaDist(*HYPERPRIOR)
    stack = PosteriorStack.of([net] * runs)
    reports = [TrainReport() for _ in range(runs)]
    undo = np.zeros(runs, dtype=int)
    updates = np.zeros(runs, dtype=int)
    features = np.stack([ds.features for ds in datasets])
    targets = np.stack([ds.targets for ds in datasets])
    run_index = np.arange(runs)[:, None]

    with _naming_the_run(labels):
        sites = incorporate_all_prior_factors(stack)
        for r, rng in enumerate(rngs):
            perturb_means(stack.run(r), rng)

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

            means, _ = forward_output_moments(stack, features)
            epoch_rmse = np.sqrt(np.mean((means - targets) ** 2, axis=-1))
            for r, report in enumerate(reports):
                report.examples_skipped += int(skipped[r])
                report.epochs_run += 1
                report.epoch_rmse.append(float(epoch_rmse[r]))
            for r in range(runs):
                if skipped[r] > MAX_SKIP_RATE * n:
                    raise SkipRateError(
                        f"{labels[r]}: {skipped[r]}/{n} examples skipped in epoch {epoch}"
                    )

    seconds = time.perf_counter() - start
    results = []
    for r, report in enumerate(reports):
        report.undo_events = int(undo[r])
        report.weight_updates = int(updates[r])
        report.seconds = seconds
        results.append((stack.run(r), sites[:, r], report))
    return results
