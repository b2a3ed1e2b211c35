"""Command-line front end: train, predict, benchmark, and active learning.

Results go to files or stdout as strict CSV; progress and summaries go to
stderr. All randomness flows from --seed. Exit codes: 0 success, 1 usage
error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import data as dio
from .active import POLICIES, ActiveConfig, run_active_experiments
from .posterior import PbpConfig
from .prediction import TrainedModel, predict_batch, rmse, test_log_likelihood
from .training import SkipRateError, train, train_runs

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _count(text: str) -> int:
    """An integer of at least 1, for the flags that count runs or rows."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pbp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--data", required=True, help="CSV dataset path")
        p.add_argument(
            "--target",
            default="last",
            help="target column: header name, index, or 'last' (default)",
        )
        p.add_argument(
            "--hidden",
            type=int,
            nargs="+",
            default=[50],
            metavar="N",
            help="hidden layer sizes (repeatable, default 50)",
        )
        p.add_argument("--epochs", type=int, default=40)
        p.add_argument("--seed", type=int, default=1)

    p_train = sub.add_parser("train", help="fit one model and save it")
    common(p_train)
    p_train.add_argument("--test-fraction", type=float, default=0.1)
    p_train.add_argument("--out", required=True, help="model file to write")

    p_pred = sub.add_parser("predict", help="predict from a saved model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True, help="feature-only CSV")
    p_pred.add_argument("--out", default="-", help="output CSV ('-' = stdout)")

    p_bench = sub.add_parser("benchmark", help="repeated random-split evaluation")
    common(p_bench)
    p_bench.add_argument("--splits", type=_count, default=20)
    p_bench.add_argument("--test-fraction", type=float, default=0.1)
    p_bench.add_argument("--jobs", type=_count, default=1)
    p_bench.add_argument("--out", default="-", help="output CSV ('-' = stdout)")

    p_act = sub.add_parser("active", help="active-learning experiment")
    common(p_act)
    p_act.set_defaults(hidden=[10])
    p_act.add_argument("--policy", choices=[*POLICIES, "both"], default="both")
    p_act.add_argument("--initial-train", type=_count, default=20)
    p_act.add_argument("--test-size", type=int, default=100)
    p_act.add_argument("--acquisitions", type=int, default=9)
    p_act.add_argument("--repetitions", type=_count, default=40)
    p_act.add_argument("--jobs", type=_count, default=1)
    p_act.add_argument(
        "--out",
        required=True,
        help="output prefix; writes <prefix>_<policy>.csv per policy",
    )
    return parser


def _pbp_config(args) -> PbpConfig:
    return PbpConfig(
        hidden_layer_sizes=tuple(args.hidden),
        epochs=args.epochs,
        seed=args.seed,
    )


def _open_out(path):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", newline="", encoding="utf-8"), True


def _write_csv(path, header, rows):
    fh, close = _open_out(path)
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if close:
            fh.close()


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_train(args) -> int:
    dataset = dio.load_csv(args.data, args.target)
    rng = np.random.default_rng(args.seed)
    train_set, test_set = dio.split(dataset, args.test_fraction, rng)
    train_norm, stats = dio.normalize(train_set)
    config = _pbp_config(args)
    net, sites, report = train(train_norm, config, rng)
    model = TrainedModel(net=net, sites=sites, norm=stats, config=config)
    dio.save_model(model, args.out)

    print(f"model: {args.out}")
    print(f"epochs_run: {report.epochs_run}")
    print(f"examples_skipped: {report.examples_skipped}")
    print(f"undo_events: {report.undo_events}")
    print(f"weight_updates: {report.weight_updates}")
    print(f"seconds: {report.seconds:.3f}")
    if report.epoch_rmse:
        print(f"final_train_rmse_normalized: {_fmt(report.epoch_rmse[-1])}")
    if len(test_set):
        print(f"test_rmse: {_fmt(rmse(model, test_set))}")
        print(f"test_log_likelihood: {_fmt(test_log_likelihood(model, test_set))}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = dio.load_model(args.model)
    features, _ = dio.read_csv_matrix(args.data)
    expected = model.net.layer_sizes[0]
    if features.shape[1] != expected:
        raise dio.DataError(
            f"{args.data}: {features.shape[1]} feature columns, model expects {expected}"
        )
    means, variances = predict_batch(model.net, model.norm, features)
    rows = list(zip(map(repr, means.tolist()), map(repr, variances.tolist())))
    _write_csv(args.out, ["mean", "variance"], rows)
    return EXIT_OK


def _shards(count: int, jobs: int) -> list[list[int]]:
    """Split run indices 0..count-1 into at most `jobs` contiguous, nonempty shards."""
    return [shard.tolist() for shard in np.array_split(np.arange(count), min(jobs, count))]


def _map_shards(fn, payloads):
    """fn over the shard payloads, one worker process each when there are
    several; the per-run results come back concatenated in run order."""
    if len(payloads) > 1:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=len(payloads), mp_context=context) as pool:
            shards = list(pool.map(fn, payloads))
    else:
        shards = [fn(p) for p in payloads]
    return [result for shard in shards for result in shard]


def _benchmark_shard(payload):
    """Test RMSE and log-likelihood of each split in the shard, trained in lockstep."""
    dataset, config, splits, test_fraction = payload
    rngs, train_sets, evaluations = [], [], []
    for s in splits:
        rng = np.random.default_rng(config.seed + s)
        train_set, test_set = dio.split(dataset, test_fraction, rng)
        train_norm, stats = dio.normalize(train_set)
        rngs.append(rng)
        train_sets.append(train_norm)
        evaluations.append((stats, test_set))
    runs = train_runs(train_sets, config, rngs, [f"split {s}" for s in splits])
    results = []
    for (net, sites, _), (stats, test_set) in zip(runs, evaluations):
        model = TrainedModel(net=net, sites=sites, norm=stats, config=config)
        results.append((rmse(model, test_set), test_log_likelihood(model, test_set)))
    return results


def cmd_benchmark(args) -> int:
    dataset = dio.load_csv(args.data, args.target)
    config = _pbp_config(args)
    payloads = [
        (dataset, config, splits, args.test_fraction)
        for splits in _shards(args.splits, args.jobs)
    ]
    results = _map_shards(_benchmark_shard, payloads)

    rmses = np.array([r for r, _ in results])
    lls = np.array([l for _, l in results])
    s = args.splits
    rows = [
        [str(i), _fmt(rmses[i]), "", _fmt(lls[i]), ""] for i in range(s)
    ]
    rmse_se = rmses.std(ddof=1) / np.sqrt(s) if s > 1 else 0.0
    ll_se = lls.std(ddof=1) / np.sqrt(s) if s > 1 else 0.0
    rows.append(
        ["mean", _fmt(rmses.mean()), _fmt(rmse_se), _fmt(lls.mean()), _fmt(ll_se)]
    )
    _write_csv(args.out, ["split", "rmse", "rmse_stderr", "log_likelihood", "ll_stderr"], rows)
    print(
        f"rmse {rmses.mean():.4f} +- {rmse_se:.4f}  "
        f"ll {lls.mean():.4f} +- {ll_se:.4f}  ({s} splits)",
        file=sys.stderr,
    )
    return EXIT_OK


def _active_shard(payload):
    """Test-RMSE history of each (policy, repetition) run in the shard, trained in lockstep."""
    dataset, config, runs, active_cfg = payload
    policies = [policy for policy, _ in runs]
    rngs = [np.random.default_rng(config.seed + rep) for _, rep in runs]
    labels = [f"{policy} repetition {rep}" for policy, rep in runs]
    states = run_active_experiments(dataset, policies, config, rngs, active_cfg, labels)
    return [state.rmse_history for state in states]


def cmd_active(args) -> int:
    dataset = dio.load_csv(args.data, args.target)
    policies = list(POLICIES) if args.policy == "both" else [args.policy]
    # Repetition r of every policy starts from seed + r; all of them train as
    # one batch, which --jobs cuts into shards.
    runs = [(policy, rep) for policy in policies for rep in range(args.repetitions)]
    config = _pbp_config(args)
    active_cfg = ActiveConfig(args.initial_train, args.test_size, args.acquisitions)
    payloads = [
        (dataset, config, [runs[i] for i in shard], active_cfg)
        for shard in _shards(len(runs), args.jobs)
    ]
    results = _map_shards(_active_shard, payloads)
    for policy in policies:
        histories = np.array([h for (p, _), h in zip(runs, results) if p == policy])
        means = histories.mean(axis=0)
        if histories.shape[0] > 1:
            stderrs = histories.std(axis=0, ddof=1) / np.sqrt(histories.shape[0])
        else:
            stderrs = np.zeros_like(means)
        rows = [
            [str(step), _fmt(means[step]), _fmt(stderrs[step])]
            for step in range(histories.shape[1])
        ]
        out = f"{args.out}_{policy}.csv"
        _write_csv(out, ["step", "mean_rmse", "stderr"], rows)
        print(f"{policy}: final rmse {means[-1]:.4f} +- {stderrs[-1]:.4f} -> {out}",
              file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "benchmark": cmd_benchmark,
    "active": cmd_active,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except dio.DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SkipRateError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
