"""Pool-based active learning driven by predictive variance.

The acquisition objective (expected reduction in posterior entropy) reduces to
picking the pool point with the largest predictive variance, because the
predictive distribution is Gaussian and the conditional-entropy term is
constant. The random policy is the control arm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, NormStats, normalize
from .posterior import PbpConfig
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
    """What one active-learning repetition ends with.

    train is the final training set, the initial points then the acquired
    ones in order. The pool arrays are fixed; pool_remaining holds the
    indices still unacquired, in their original order. Targets sit behind
    HiddenTargets so the reveal log spans the entire run. test_rows and
    pool_rows are the test and pool points' places in the data set, counted
    from 1.
    """

    train: Dataset
    pool_features: np.ndarray
    pool_targets: HiddenTargets
    pool_remaining: np.ndarray
    test: Dataset
    policy: str
    test_rows: np.ndarray
    pool_rows: np.ndarray
    rmse_history: list[float]


def acquire_next(variances: np.ndarray) -> int:
    """Index of the pool point with the highest predictive variance, given
    one run's predictive variances of its pool.

    Ties break toward the lowest index (first argmax), for reproducibility.
    """
    if variances.shape[0] == 0:
        raise ValueError("empty pool")
    return int(np.argmax(variances))


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
    training, giving acquisitions+1 evaluations. A split depends only on its
    rng's state at entry, so active and random arms started from the same
    seed share it.

    Every repetition, of either policy, has the same training-set size at each
    step, so the repetitions run as one stack: each step normalizes every
    training set in one call, trains them in lockstep (train_runs) and
    predicts twice, every repetition's test set in one pass and the active
    ones' pools in another. Each repetition's results are those of running it
    alone. labels name the repetitions in a SkipRateError and a non-finite
    prediction (default "run <r>"), which also names its pass, "test set" or
    "pool", and its row of the data set.
    """
    if len(policies) != len(rngs):
        raise ValueError(f"{len(policies)} policies for {len(rngs)} rngs")
    for policy in policies:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
    cfg = active_cfg or ActiveConfig()
    labels = labels or [f"run {r}" for r in range(len(rngs))]
    n = len(dataset)
    needed = cfg.initial_train + cfg.test_size + cfg.acquisitions
    if n < needed:
        raise ValueError(f"need at least {needed} rows, dataset has {n}")

    # Each repetition's split, one permutation of its rng: its first
    # initial_train rows train, the next test_size rows test, the rest pool.
    runs, first = len(rngs), cfg.initial_train
    perms = np.stack([rng.permutation(n) for rng in rngs])
    tr, te, pool = np.split(perms, [first, first + cfg.test_size], axis=1)
    # The training sets, (R, initial_train + acquisitions, d): step k trains
    # on the first initial_train + k rows of each.
    train_x = np.empty((runs, first + cfg.acquisitions, dataset.features.shape[1]))
    train_y = np.empty((runs, first + cfg.acquisitions))
    train_x[:, :first], train_y[:, :first] = dataset.features[tr], dataset.targets[tr]
    test = Dataset(dataset.features[te], dataset.targets[te], dataset.columns)
    pool_x = dataset.features[pool]
    hidden = [HiddenTargets(dataset.targets[row]) for row in pool]
    # Each repetition's unacquired pool points, in their original order.
    remaining = np.tile(np.arange(pool.shape[1]), (runs, 1))
    active = np.array([r for r, policy in enumerate(policies) if policy == "active"], dtype=int)
    test_labels = [f"{label}, test set" for label in labels]
    pool_labels = [f"{labels[r]}, pool" for r in active]

    history = np.empty((runs, cfg.acquisitions + 1))
    for step in range(cfg.acquisitions + 1):
        size = first + step
        train_norm, norm = normalize(Dataset(train_x[:, :size], train_y[:, :size], dataset.columns))
        stack, _, _ = train_runs(train_norm, config, rngs, labels)
        rmses, _ = test_metrics(stack, norm, test, test_labels, te + 1)
        history[:, step] = rmses
        if step == cfg.acquisitions:
            break
        pick = np.array([
            0 if policy == "active" else int(rng.integers(remaining.shape[1]))
            for policy, rng in zip(policies, rngs)
        ])
        if active.size:
            left = remaining[active]
            _, variances = predict_batch(
                stack.take(active),
                NormStats(
                    norm.feature_mean[active], norm.feature_std[active],
                    norm.target_mean[active], norm.target_std[active],
                ),
                pool_x[active[:, None], left],
                pool_labels,
                pool[active[:, None], left] + 1,
            )
            pick[active] = [acquire_next(row) for row in variances]
        originals = remaining[np.arange(runs), pick]
        train_x[:, size] = pool_x[np.arange(runs), originals]
        train_y[:, size] = [targets.reveal(int(o)) for targets, o in zip(hidden, originals)]
        remaining = remaining[np.arange(remaining.shape[1]) != pick[:, None]].reshape(runs, -1)
    return [
        ActiveState(
            train=Dataset(train_x[r], train_y[r], dataset.columns),
            pool_features=pool_x[r],
            pool_targets=hidden[r],
            pool_remaining=remaining[r],
            test=Dataset(test.features[r], test.targets[r], dataset.columns),
            policy=policies[r],
            test_rows=te[r] + 1,
            pool_rows=pool[r] + 1,
            rmse_history=history[r].tolist(),
        )
        for r in range(runs)
    ]
