"""Pool-based active learning driven by predictive variance.

The acquisition objective (expected reduction in posterior entropy) reduces to
picking the pool point with the largest predictive variance, because the
predictive distribution is Gaussian and the conditional-entropy term is
constant. The random policy is the control arm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, normalize
from .posterior import PbpConfig
from .prediction import TrainedModel, predict_batch, rmse
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


def acquire_next(model: TrainedModel, pool_features: np.ndarray) -> int:
    """Index of the pool point with the highest predictive variance.

    Ties break toward the lowest index (first argmax), for reproducibility.
    """
    if pool_features.shape[0] == 0:
        raise ValueError("empty pool")
    _, variances = predict_batch(model.net, model.norm, pool_features)
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
    labels: list[str] | None,
) -> list[TrainedModel]:
    normalized = [normalize(state.train) for state in states]
    runs = train_runs([train_norm for train_norm, _ in normalized], config, rngs, labels)
    return [
        TrainedModel(net=net, norm=stats, config=config)
        for (net, _, _), (_, stats) in zip(runs, normalized)
    ]


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
    point and retrains, acquisitions times. Test RMSE is recorded before each
    acquisition and once more at the end, giving acquisitions+1 evaluations.
    A split depends only on its rng's state at entry, so active and random
    arms started from the same seed share it.

    Every repetition, of either policy, has the same training-set size at each
    step, so each step's trainings run in lockstep; each repetition's results
    are those of running it alone. labels name the repetitions in a
    SkipRateError.
    """
    if len(policies) != len(rngs):
        raise ValueError(f"{len(policies)} policies for {len(rngs)} rngs")
    for policy in policies:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
    cfg = active_cfg or ActiveConfig()
    states = [_initial_split(dataset, cfg, rng, p) for rng, p in zip(rngs, policies)]

    models = _fit(states, config, rngs, labels)
    for _step in range(cfg.acquisitions):
        for state, model, rng in zip(states, models, rngs):
            state.rmse_history.append(rmse(model, state.test))
            remaining = state.pool_remaining
            if state.policy == "active":
                pick = acquire_next(model, state.pool_features[remaining])
            else:
                pick = int(rng.integers(remaining.shape[0]))
            original = int(remaining[pick])
            x_new = state.pool_features[original]
            y_new = state.pool_targets.reveal(original)

            state.train = Dataset(
                np.vstack([state.train.features, x_new[None, :]]),
                np.append(state.train.targets, y_new),
                state.train.columns,
            )
            state.pool_remaining = np.delete(remaining, pick)

        models = _fit(states, config, rngs, labels)

    for state, model in zip(states, models):
        state.rmse_history.append(rmse(model, state.test))
    return states
