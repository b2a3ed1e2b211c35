"""Span tracing of the pbp layers from outside the package, and the per-layer
metrics derived from the spans.

`patched` wraps each traced function under every name a pbp module binds it
to, which is where callers look it up (for example `train` in both `pbp.cli`
and `pbp.active`), and restores every name on exit. Nothing under `src/`
changes. A span is (name, start, end, parent index, info); a layer's self time
is its span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

ROOT_SPAN = "cli.main"


def _rows(arr) -> int:
    return int(np.shape(arr)[0])


# Each traced function: (home module, function, info(args, result) or None).
# The info value is recorded with the span and feeds the work counts.
LAYERS = [
    ("pbp.cli", "_write_csv", lambda a, r: len(a[2])),
    ("pbp.active", "run_active_experiment", None),
    ("pbp.active", "acquire_next", None),
    ("pbp.training", "train", None),
    ("pbp.prediction", "predict_batch", lambda a, r: _rows(a[2])),
    ("pbp.data", "read_csv_matrix", lambda a, r: _rows(r[0])),
    ("pbp.data", "save_model", lambda a, r: os.path.getsize(a[1])),
    ("pbp.data", "load_model", None),
    ("pbp.data", "normalize", None),
    ("pbp.updates", "incorporate_all_prior_factors", lambda a, r: a[0].n_weights()),
    ("pbp.updates", "incorporate_likelihood_factor",
     lambda a, r: (r.skipped, r.undo_count, r.weight_updates)),
    ("pbp.updates", "ep_refresh_prior", lambda a, r: (r.sites_visited, r.sites_skipped)),
    ("pbp.updates", "backward_gradients", None),
    ("pbp.updates", "_linear_backward", None),
    ("pbp.updates", "_relu_backward", None),
    ("pbp.updates", "gamma_refine", lambda a, r: r is a[0]),
    ("pbp.forward", "forward_output_moments", None),
    ("pbp.forward", "forward_output_moments_batch", lambda a, r: _rows(a[1])),
    ("pbp.forward", "forward_linear", None),
    ("pbp.forward", "relu_moments", lambda a, r: int(a[0].mean.size)),
]


def span_name(module: str, function: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{function}"


class Tracer:
    """Collects spans in memory; one instance per traced execution."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._open: list[int] = []

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if info is not None:
                spans[idx] = (name, start, end, parent, info(args, result))
            return result

        return traced


def _pbp_modules():
    return [m for name, m in list(sys.modules.items()) if name == "pbp" or name.startswith("pbp.")]


@contextmanager
def patched(tracer: Tracer, layers=LAYERS):
    """Route every pbp lookup of each traced function through `tracer`.

    A function that no longer exists is reported on stderr and left out, so
    its metrics read 0. Every replaced name is restored on exit, and the
    restoration is verified.
    """
    saved = []
    try:
        for module, function, info in layers:
            home = sys.modules.get(module)
            original = getattr(home, function, None) if home else None
            if original is None:
                print(f"perfbench: {module}.{function} not found; not traced", file=sys.stderr)
                continue
            wrapper = tracer.wrap(span_name(module, function), original, info)
            for mod in _pbp_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)
        for mod, attr, value in saved:
            if getattr(mod, attr) is not value:
                raise RuntimeError(f"{mod.__name__}.{attr} was not restored")


def without_probe_time(spans, samples) -> list[tuple]:
    """Spans with the calibration probe's time taken out of their durations.

    samples are (start, seconds) of probe runs; each is removed from every span
    that contains it (its innermost span loses it as self time).
    """
    if not spans or not samples:
        return list(spans)
    starts = np.array([s[1] for s in spans])
    ends = np.array([s[2] for s in spans])
    removed = np.zeros(len(spans))
    for t, d in samples:
        removed[(starts <= t) & (ends >= t + d)] += d
    return [
        (name, start, end - cut, parent, info)
        for (name, start, end, parent, info), cut in zip(spans, removed.tolist())
    ]


def self_times(spans) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    own = np.array([end - start for _, start, end, _, _ in spans])
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# ---------------------------------------------------------------- metrics


def computed_update_cost(layer_sizes) -> dict[str, float]:
    """Operation counts of one likelihood update, computed from the layer shapes.

    Counted from the formulas as implemented, per weight of a layer with the
    bias column included: forward_linear 9 flops (mean, variance and squares),
    _linear_backward 16 (outer products and the three matrix-vector products),
    the refinement 8; per hidden unit, about 30 flops for relu_moments and 70
    for _relu_backward, counting each special function as one. Posterior
    state is the weight means and variances (8 bytes each): the forward sweep,
    the backward sweep and the refinement each read both arrays once, and the
    refinement writes both once.
    """
    weights = sum((a + 1) * b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))
    hidden_units = sum(layer_sizes[1:-1])
    return {
        "computed.update_flops": float(33 * weights + 100 * hidden_units),
        "computed.update_bytes_read": float(3 * 16 * weights),
        "computed.update_bytes_written": float(16 * weights),
    }


def _p(values, q, scale) -> float:
    return float(np.percentile(values, q) * scale) if len(values) else 0.0


def _ratio(num, den) -> float:
    return float(num / den) if den else 0.0


def layer_metrics(executions: list[list[tuple]], layer_sizes) -> dict[str, float]:
    """Per-layer metrics from the spans of one or more identical executions.

    Counts are per execution; timing percentiles pool every execution.
    """
    n_exec = len(executions)
    dur: dict[str, list[float]] = {}
    own: dict[str, list[float]] = {}
    info: dict[str, list] = {}
    relu_example, relu_batch, relu_batch_units = [], [], []
    root_total = root_self = 0.0
    for spans in executions:
        selfs = self_times(spans)
        for (name, start, end, parent, extra), self_t in zip(spans, selfs):
            dur.setdefault(name, []).append(end - start)
            own.setdefault(name, []).append(self_t)
            info.setdefault(name, []).append(extra)
            if name == "forward.relu_moments":
                parent_name = spans[parent][0] if parent >= 0 else ""
                if parent_name == "forward.forward_output_moments":
                    relu_example.append(end - start)
                elif parent_name == "forward.forward_output_moments_batch":
                    relu_batch.append(end - start)
                    relu_batch_units.append(extra)
            if name == ROOT_SPAN:
                root_total += end - start
                root_self += self_t

    def d(name):
        return dur.get(name, [])

    def calls(name):
        return len(d(name)) / n_exec

    def total(name, field=None):
        values = info.get(name, [])
        if field is not None:
            values = [v[field] for v in values]
        return float(sum(values))

    ilf = "updates.incorporate_likelihood_factor"
    ep = "updates.ep_refresh_prior"
    fwd_b = "forward.forward_output_moments_batch"
    prior = "updates.incorporate_all_prior_factors"
    csv_in = "data.read_csv_matrix"
    m = {
        "forward.forward_output_moments.calls": calls("forward.forward_output_moments"),
        "forward.forward_output_moments.us_p50": _p(d("forward.forward_output_moments"), 50, 1e6),
        "forward.forward_output_moments.us_p99": _p(d("forward.forward_output_moments"), 99, 1e6),
        "forward.forward_linear.us_p50": _p(d("forward.forward_linear"), 50, 1e6),
        "forward.relu_moments.us_p50": _p(relu_example, 50, 1e6),
        f"{fwd_b}.calls": calls(fwd_b),
        f"{fwd_b}.rows": total(fwd_b) / n_exec,
        f"{fwd_b}.us_per_row": _ratio(sum(d(fwd_b)) * 1e6, total(fwd_b)),
        "forward.relu_moments.batch_ns_per_unit": _ratio(sum(relu_batch) * 1e9, sum(relu_batch_units)),
        f"{ilf}.calls": calls(ilf),
        f"{ilf}.us_p50": _p(d(ilf), 50, 1e6),
        f"{ilf}.us_p99": _p(d(ilf), 99, 1e6),
        f"{ilf}.self_us_p50": _p(own.get(ilf, []), 50, 1e6),
        f"{ilf}.undo_ratio": _ratio(total(ilf, 1), total(ilf, 2)),
        f"{ilf}.skip_ratio": _ratio(total(ilf, 0), len(d(ilf))),
        "updates.backward_gradients.us_p50": _p(d("updates.backward_gradients"), 50, 1e6),
        "updates._linear_backward.us_p50": _p(d("updates._linear_backward"), 50, 1e6),
        "updates._relu_backward.us_p50": _p(d("updates._relu_backward"), 50, 1e6),
        "updates.gamma_refine.calls": calls("updates.gamma_refine"),
        "updates.gamma_refine.us_p50": _p(d("updates.gamma_refine"), 50, 1e6),
        "updates.gamma_refine.rejected_ratio": _ratio(
            total("updates.gamma_refine"), len(d("updates.gamma_refine"))
        ),
        f"{ep}.calls": calls(ep),
        f"{ep}.ms_p50": _p(d(ep), 50, 1e3),
        f"{ep}.us_per_site": _ratio(sum(d(ep)) * 1e6, total(ep, 0)),
        f"{ep}.sites_skipped_ratio": _ratio(total(ep, 1), total(ep, 0)),
        f"{prior}.calls": calls(prior),
        f"{prior}.us_per_weight": _ratio(sum(d(prior)) * 1e6, total(prior)),
        "training.train.calls": calls("training.train"),
        "training.train.s_p50": _p(d("training.train"), 50, 1.0),
        "training.train.self_s": sum(own.get("training.train", [])) / n_exec,
        "prediction.predict_batch.calls": calls("prediction.predict_batch"),
        "prediction.predict_batch.rows": total("prediction.predict_batch") / n_exec,
        "prediction.predict_batch.ms_p50": _p(d("prediction.predict_batch"), 50, 1e3),
        "active.run_active_experiment.calls": calls("active.run_active_experiment"),
        "active.run_active_experiment.s_p50": _p(d("active.run_active_experiment"), 50, 1.0),
        "active.run_active_experiment.self_s": sum(own.get("active.run_active_experiment", [])) / n_exec,
        "active.acquire_next.calls": calls("active.acquire_next"),
        "active.acquire_next.ms_p50": _p(d("active.acquire_next"), 50, 1e3),
        "data.normalize.calls": calls("data.normalize"),
        "data.normalize.us_p50": _p(d("data.normalize"), 50, 1e6),
        f"{csv_in}.calls": calls(csv_in),
        f"{csv_in}.rows": total(csv_in) / n_exec,
        f"{csv_in}.us_per_row": _ratio(sum(d(csv_in)) * 1e6, total(csv_in)),
        "data.save_model.ms": _p(d("data.save_model"), 50, 1e3),
        "data.save_model.bytes": total("data.save_model") / max(len(d("data.save_model")), 1),
        "data.load_model.ms": _p(d("data.load_model"), 50, 1e3),
        "cli._write_csv.rows": total("cli._write_csv") / n_exec,
        "cli._write_csv.s_total": sum(d("cli._write_csv")) / n_exec,
        "trace.coverage": _ratio(root_total - root_self, root_total),
    }
    cost = computed_update_cost(layer_sizes)
    m.update(cost)
    m[f"{ilf}.mflops"] = _ratio(cost["computed.update_flops"], m[f"{ilf}.us_p50"])
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from the last part of its name."""
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "rows"):
        return "count"
    if last == "mflops":
        return "Mflop/s"
    if last == "update_flops":
        return "flop"
    if "bytes" in last:
        return "B"
    tokens = last.split("_")
    for unit in ("ns", "us", "ms", "s"):
        if unit in tokens:
            return unit
    return "ratio"
