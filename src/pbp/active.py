"""Pool-based active learning driven by predictive variance.

The acquisition objective (expected reduction in posterior entropy) reduces to
picking the pool point with the largest predictive variance, because the
predictive distribution is Gaussian and the conditional-entropy term is
constant. The random policy is the control arm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, NormStats, normalize
from .posterior import NetworkPosterior, PbpConfig, PosteriorStack
from .prediction import predict_batch, test_metrics
from .training import train_runs


POLICIES = ("active", "random")


@dataclass
class ActiveConfig:
    """Experiment protocol knobs."""

    initial_train: int = 20
    test_size: int = 100
    acquisitions: int = 9


class HiddenTargets:
    """Pool targets that must stay unread until their point is acquired.

    Every read is logged, so tests can audit that no target leaked early.
    """

    def __init__(self, values: np.ndarray):
        self._values = values
        self.reveal_log: list[int] = []

    def reveal(self, index: int) -> float:
        self.reveal_log.append(index)
        return float(self._values[index])


@dataclass
class ActiveState:
    """Bookkeeping for one active-learning repetition.

    The pool arrays are fixed; pool_remaining holds the indices still
    unacquired, in their original order. Targets sit behind HiddenTargets so
    the reveal log spans the entire run.
    """

    train: Dataset
    pool_features: np.ndarray
    pool_targets: HiddenTargets
    pool_remaining: np.ndarray
    test: Dataset
    policy: str
    rmse_history: list[float] = field(default_factory=list)


def acquire_next(variances: np.ndarray) -> int:
    """Index of the pool point with the highest predictive variance, given
    one run's predictive variances of its pool.

    Ties break toward the lowest index (first argmax), for reproducibility.
    """
    if variances.shape[0] == 0:
        raise ValueError("empty pool")
    return int(np.argmax(variances))


def _initial_split(
    dataset: Dataset, cfg: ActiveConfig, rng: np.random.Generator, policy: str
) -> ActiveState:
    n = len(dataset)
    needed = cfg.initial_train + cfg.test_size + cfg.acquisitions
    if n < needed:
        raise ValueError(f"need at least {needed} rows, dataset has {n}")
    perm = rng.permutation(n)
    tr = perm[: cfg.initial_train]
    te = perm[cfg.initial_train : cfg.initial_train + cfg.test_size]
    pool = perm[cfg.initial_train + cfg.test_size :]
    return ActiveState(
        train=Dataset(dataset.features[tr], dataset.targets[tr], dataset.columns),
        pool_features=dataset.features[pool],
        pool_targets=HiddenTargets(dataset.targets[pool]),
        pool_remaining=np.arange(pool.shape[0]),
        test=Dataset(dataset.features[te], dataset.targets[te], dataset.columns),
        policy=policy,
    )


def _fit(
    states: list[ActiveState],
    config: PbpConfig,
    rngs: list[np.random.Generator],
    labels: list[str],
) -> tuple[list[NetworkPosterior], list[NormStats]]:
    """Train every repetition on its training set and append its test RMSE to
    its history, from one prediction of every test set; the posteriors and
    their normalization statistics."""
    normalized = [normalize(state.train) for state in states]
    runs = train_runs([train_norm for train_norm, _ in normalized], config, rngs, labels)
    nets, norms = [net for net, _, _ in runs], [stats for _, stats in normalized]
    rmses, _ = test_metrics(PosteriorStack.of(nets), norms, [state.test for state in states], labels)
    for state, value in zip(states, rmses.tolist()):
        state.rmse_history.append(value)
    return nets, norms


def run_active_experiments(
    dataset: Dataset,
    policies: list[str],
    config: PbpConfig,
    rngs: list[np.random.Generator],
    active_cfg: ActiveConfig | None = None,
    labels: list[str] | None = None,
) -> list[ActiveState]:
    """Independent repetitions of the experiment, repetition r with policy
    policies[r] and generator rngs[r].

    Each repetition splits the data, trains from scratch, then acquires a
    point and retrains, acquisitions times. Test RMSE is recorded after each
    training, giving acquisitions+1 evaluations. Each step predicts twice:
    every repetition's test set in one pass, the active ones' pools in another.
    A split depends only on its rng's state at entry, so active and random
    arms started from the same seed share it.

    Every repetition, of either policy, has the same training-set size at each
    step, so each step's trainings run in lockstep; each repetition's results
    are those of running it alone. labels name the repetitions in a
    SkipRateError and a non-finite prediction (default "run <r>").
    """
    if len(policies) != len(rngs):
        raise ValueError(f"{len(policies)} policies for {len(rngs)} rngs")
    for policy in policies:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
    cfg = active_cfg or ActiveConfig()
    labels = labels or [f"run {r}" for r in range(len(rngs))]
    states = [_initial_split(dataset, cfg, rng, p) for rng, p in zip(rngs, policies)]

    active = [r for r, state in enumerate(states) if state.policy == "active"]
    nets, norms = _fit(states, config, rngs, labels)
    for _step in range(cfg.acquisitions):
        picks = {}
        if active:
            # Every repetition has as many pool points left as the others.
            _, variances = predict_batch(
                PosteriorStack.of([nets[r] for r in active]),
                [norms[r] for r in active],
                np.stack([states[r].pool_features[states[r].pool_remaining] for r in active]),
                [labels[r] for r in active],
            )
            picks = {r: acquire_next(row) for r, row in zip(active, variances)}
        for r, (state, rng) in enumerate(zip(states, rngs)):
            remaining = state.pool_remaining
            pick = picks[r] if r in picks else int(rng.integers(remaining.shape[0]))
            original = int(remaining[pick])
            x_new = state.pool_features[original]
            y_new = state.pool_targets.reveal(original)

            state.train = Dataset(
                np.vstack([state.train.features, x_new[None, :]]),
                np.append(state.train.targets, y_new),
                state.train.columns,
            )
            state.pool_remaining = np.delete(remaining, pick)

        nets, norms = _fit(states, config, rngs, labels)
    return states
