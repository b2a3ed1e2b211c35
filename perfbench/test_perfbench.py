"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench
"""

import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pbp  # noqa: E402
import pbp.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_identical_for_a_seed_and_differ_across_seeds(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    digests = []
    for run, seed in enumerate((7, 7, 8)):
        out = tmp_path / str(run)
        out.mkdir()
        files = workloads.write_inputs(workload, seed, out)
        digests.append(workloads.digest_files(files.values()))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_inputs_have_the_workload_shape(tmp_path):
    workload = workloads.WORKLOADS["wine_deep"]
    files = workloads.write_inputs(workload, 3, tmp_path)
    data = np.loadtxt(files["data"], delimiter=",", skiprows=1)
    assert data.shape == (1599, 12)
    assert np.array_equal(data[:, -1], np.round(data[:, -1]))  # integer quality scores
    truth = workloads.Truth.load(workload, files, 3)
    assert truth.held_out.shape == (workload.predict_rows,)


def _span(name, start, end, parent):
    return (name, start, end, parent, None)


def test_self_time_of_a_hand_built_span_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9] -> b1 [5, 6], b2 [7, 9]
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a1", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("b1", 5.0, 6.0, 3),
        _span("b2", 7.0, 9.0, 3),
    ]
    assert tracing.self_times(spans).tolist() == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0]


def test_tracer_records_nesting_and_info():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, info=lambda args, result: result)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    (name_o, s_o, e_o, parent_o, _), (name_i, s_i, e_i, parent_i, info_i) = tracer.spans
    assert (name_o, parent_o, name_i, parent_i, info_i) == ("outer", -1, "inner", 0, 2)
    assert s_o <= s_i <= e_i <= e_o


def test_tracer_records_a_span_when_the_call_raises():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert [s[0] for s in tracer.spans] == ["boom"]
    assert tracer._open == []


def _pbp_bindings():
    return {
        (mod.__name__, attr): value
        for mod in tracing._pbp_modules()
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_patched_wraps_every_lookup_and_restores_every_name():
    before = _pbp_bindings()
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        # train is looked up in both pbp.cli and pbp.active.
        assert pbp.cli.train is pbp.active.train
        assert pbp.cli.train is not before[("pbp.training", "train")]
        assert pbp.updates.forward_output_moments is not before[
            ("pbp.forward", "forward_output_moments")
        ]
    after = _pbp_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_patched_restores_names_when_the_body_raises():
    before = _pbp_bindings()
    with pytest.raises(KeyError):
        with tracing.patched(tracing.Tracer()):
            raise KeyError("body failed")
    after = _pbp_bindings()
    assert all(after[key] is before[key] for key in before)


def test_traced_cli_run_gives_layer_metrics(tmp_path):
    workload = workloads.Workload(
        name="tiny", why="test", data=workloads.YACHT, hidden=(4,), epochs=1,
        predict_rows=50, repetitions=2, acquisitions=2,
    )
    files = workloads.write_inputs(workload, 5, tmp_path)
    tracer = tracing.Tracer()
    main = tracer.wrap(tracing.ROOT_SPAN, pbp.cli.main)
    with tracing.patched(tracer):
        for cmd in workloads.commands(workload, files, tmp_path, 5):
            assert main(cmd.argv) == 0
    metrics = tracing.layer_metrics([tracer.spans], [6, 4, 1])
    # 2 reps x 2 policies x 3 fits, plus the train command.
    assert metrics["training.train.calls"] == 13
    assert metrics["active.acquire_next.calls"] == 2 * 2
    assert metrics["updates.incorporate_likelihood_factor.calls"] == sum(
        c.updates for c in workloads.commands(workload, files, tmp_path, 5)
    )
    assert metrics["trace.coverage"] > 0.8
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", tracing.unit_of(m)) for m in metrics)


def test_max_rel_dev_is_zero_for_identical_outputs_and_sees_drift():
    outputs = {"a": np.linspace(1.0, 2.0, 1000), "b": np.array([3.0, -4.0])}
    summary = workloads.summarize(outputs)
    assert workloads.max_rel_dev(outputs, summary) == 0.0
    drifted = {"a": outputs["a"] * (1 + 1e-9), "b": outputs["b"]}
    assert 1e-10 < workloads.max_rel_dev(drifted, summary) < 1e-8
    assert workloads.max_rel_dev({"a": outputs["a"]}, summary) == 1.0


def test_computed_update_cost_counts_weights():
    cost = tracing.computed_update_cost([13, 50, 1])
    weights = 14 * 50 + 51 * 1
    assert cost["computed.update_bytes_written"] == 16 * weights
    assert cost["computed.update_flops"] == 33 * weights + 100 * 50


def test_probe_time_is_removed_from_every_span_that_holds_it():
    spans = [_span("root", 0.0, 10.0, -1), _span("a", 1.0, 4.0, 0), _span("b", 5.0, 9.0, 0)]
    cleaned = tracing.without_probe_time(spans, [(2.0, 0.5), (9.5, 0.25)])
    assert [end - start for _, start, end, _, _ in cleaned] == [9.25, 2.5, 4.0]
    assert tracing.self_times(cleaned).tolist() == [2.75, 2.5, 4.0]
