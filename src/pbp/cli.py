"""Command-line front end: train, predict, benchmark, and active learning.

Results go to files or stdout as strict CSV; progress and summaries go to
stderr. All randomness flows from --seed. Exit codes: 0 success, 1 usage
error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager

import numpy as np

from . import data as dio
from . import kernel
from .active import POLICIES, ActiveConfig, run_active_experiments
from .posterior import NumericError, PbpConfig
from .prediction import TrainedModel, predict_batch, test_metrics, training_rmse
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


def _int_at_least(minimum: int):
    """Argument type: an integer of at least `minimum`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


# The flags that count runs, rows or units take _count; --acquisitions,
# --epochs and --seed may be 0.
_count = _int_at_least(1)
_nonnegative = _int_at_least(0)

# --jobs is accepted for compatibility: every run trains in one in-process
# batch, whose large forward passes already use every usable CPU.
_JOBS_HELP = "accepted and ignored; all runs train as one batch in this process"


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
            type=_count,
            nargs="+",
            default=[50],
            metavar="N",
            help="hidden layer sizes (repeatable, default 50)",
        )
        p.add_argument("--epochs", type=_nonnegative, default=40)
        p.add_argument("--seed", type=_nonnegative, default=1)

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
    p_bench.add_argument("--jobs", type=_count, default=1, help=_JOBS_HELP)
    p_bench.add_argument("--out", default="-", help="output CSV ('-' = stdout)")

    p_act = sub.add_parser("active", help="active-learning experiment")
    common(p_act)
    p_act.set_defaults(hidden=[10])
    p_act.add_argument("--policy", choices=[*POLICIES, "both"], default="both")
    p_act.add_argument("--initial-train", type=_count, default=20)
    p_act.add_argument("--test-size", type=_count, default=100)
    p_act.add_argument("--acquisitions", type=_nonnegative, default=9)
    p_act.add_argument("--repetitions", type=_count, default=40)
    p_act.add_argument("--jobs", type=_count, default=1, help=_JOBS_HELP)
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


@contextmanager
def _output(path):
    """The output file at path, or stdout for '-'."""
    if path == "-":
        yield sys.stdout
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        yield fh


def _write_csv(path, header, rows):
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _prediction_csv(means: np.ndarray, variances: np.ndarray) -> str:
    """The mean,variance CSV of predictions, floats as repr (written by
    kernel.c): what csv.writer gives for these fields, none of which needs
    quoting."""
    rows = kernel.repr_matrix(np.column_stack([means, variances]), ",", "\n")
    return f"mean,variance\n{rows}\n" if rows else "mean,variance\n"


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_train(args) -> int:
    dataset = dio.load_csv(args.data, args.target)
    config = _pbp_config(args)
    rng = np.random.default_rng(config.seed)
    train_set, test_set = dio.split(dataset, args.test_fraction, rng)
    train_norm, stats = dio.normalize(train_set)
    stack, _, report = train(train_norm, config, rng)
    # The one training RMSE printed, taken before the model is saved: a
    # numeric failure in its rows pass leaves no model file.
    train_rmse = None
    if report.epochs_run:
        [train_rmse] = training_rmse(stack, train_norm.features[None], train_norm.targets[None])
    model = TrainedModel(stack=stack, norm=stats, config=config)
    dio.save_model(model, args.out)

    print(f"model: {args.out}")
    print(f"epochs_run: {report.epochs_run}")
    print(f"examples_skipped: {report.examples_skipped}")
    print(f"undo_events: {report.undo_events}")
    print(f"weight_updates: {report.weight_updates}")
    print(f"seconds: {report.seconds:.3f}")
    if train_rmse is not None:
        print(f"final_train_rmse_normalized: {_fmt(train_rmse)}")
    if len(test_set):
        [test_rmse], [test_ll] = test_metrics(stack, stats, dio.Dataset.of([test_set]))
        print(f"test_rmse: {_fmt(test_rmse)}")
        print(f"test_log_likelihood: {_fmt(test_ll)}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = dio.load_model(args.model)
    features, _ = dio.read_csv_matrix(args.data)
    expected = model.stack.layer_sizes[0]
    if features.shape[1] != expected:
        raise dio.DataError(
            f"{args.data}: {features.shape[1]} feature columns, model expects {expected}"
        )
    [means], [variances] = predict_batch(model.stack, model.norm, features[None])
    with _output(args.out) as fh:
        fh.write(_prediction_csv(means, variances))
    return EXIT_OK


def cmd_benchmark(args) -> int:
    dataset = dio.load_csv(args.data, args.target)
    config = _pbp_config(args)
    # Split i draws its split and its training from seed + i; all splits
    # train in lockstep as one batch.
    rngs = [np.random.default_rng(config.seed + i) for i in range(args.splits)]
    splits = [dio.split(dataset, args.test_fraction, rng) for rng in rngs]
    train_set, test_set = (dio.Dataset.of(sets) for sets in zip(*splits))
    train_norm, norm = dio.normalize(train_set)
    labels = [f"split {i}" for i in range(args.splits)]
    stack, _, _ = train_runs(train_norm, config, rngs, labels)
    rmses, lls = test_metrics(stack, norm, test_set, labels)

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


def cmd_active(args) -> int:
    dataset = dio.load_csv(args.data, args.target)
    policies = list(POLICIES) if args.policy == "both" else [args.policy]
    # Repetition r of every policy starts from seed + r; all of them train as
    # one batch.
    runs = [(policy, rep) for policy in policies for rep in range(args.repetitions)]
    config = _pbp_config(args)
    active_cfg = ActiveConfig(args.initial_train, args.test_size, args.acquisitions)
    states = run_active_experiments(
        dataset,
        [policy for policy, _ in runs],
        config,
        [np.random.default_rng(config.seed + rep) for _, rep in runs],
        active_cfg,
        [f"{policy} repetition {rep}" for policy, rep in runs],
    )
    for policy in policies:
        histories = np.array([s.rmse_history for (p, _), s in zip(runs, states) if p == policy])
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
    # ArithmeticError: the ZeroDivisionError and OverflowError of the kernels.
    except (NumericError, ArithmeticError, SkipRateError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
