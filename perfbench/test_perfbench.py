"""Self-tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q

They cover the tracer (wrappers are restored, self time is right on a
known span tree) and the contract between run.py and BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, self_times, summarize  # noqa: E402


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _snapshot(nm) -> dict:
    owners = [nm.dml, nm.domain, nm.decisions, nm.evaluation, nm.interpret, nm.modelio,
              nm.evaluation.EnginePolicy, nm.modelio.ActionLogger]
    return {(id(o), k): v for o in owners for k, v in vars(o).items() if callable(v)}


def test_layer_wrappers_are_restored_even_after_an_error():
    import nodemend
    import nodemend.evaluation
    import nodemend.interpret
    import nodemend.modelio

    before = _snapshot(nodemend)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        try:
            layers.install(tracer, nodemend)
            assert nodemend.dml.fit_forest is not before[(id(nodemend.dml), "fit_forest")]
            assert hasattr(nodemend.modelio.ActionLogger.log, "__wrapped__")
            raise RuntimeError("boom")
        finally:
            tracer.restore()
    after = _snapshot(nodemend)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.skipped == []


def test_wrapper_records_nested_spans_and_results():
    mod = types.SimpleNamespace(inner=lambda x: x + 1)
    mod.outer = lambda x: mod.inner(x) * 2
    tracer = Tracer()
    seen = []
    tracer.wrap(mod, "inner", "inner", on_result=lambda a, k, r: seen.append(r))
    tracer.wrap(mod, "outer", "outer")
    assert mod.outer(1) == 4
    tracer.restore()
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    assert seen == [2]
    assert mod.outer(1) == 4 and len(tracer.spans) == 2


def test_missing_entry_point_is_skipped_not_fatal():
    tracer = Tracer()
    assert tracer.wrap(types.SimpleNamespace(), "absent", "x") is False
    assert len(tracer.skipped) == 1 and tracer.skipped[0].endswith(".absent")


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping: union 5)
    # and [8, 9]; child [1, 4] has a grandchild [2, 3].
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 3.0, 6.0, 0, None],
        ["c", 8.0, 9.0, 0, None],
        ["a.x", 2.0, 3.0, 1, None],
    ]
    assert self_times(spans) == pytest.approx([10.0 - 6.0, 3.0 - 1.0, 3.0, 1.0, 1.0])
    by_name = summarize(spans)
    assert by_name["root"] == pytest.approx({"total_s": 10.0, "self_s": 4.0, "calls": 1})


def test_metric_names_match_benchmark_json():
    bench = _bench()
    assert [m["name"] for m in bench["end_to_end"]] == list(run.E2E)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E
    assert [m["name"] for m in bench["per_layer"]] == list(layers.PER_LAYER)
    assert all(m["unit"] == layers.unit_of(m["name"]) for m in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert "setup_s" in run.E2E


def test_result_line_prints_exactly_the_declared_metrics():
    values = {name: 1.0 for name in run.E2E}
    parsed = json.loads(run.result_line(True, 3, 0, values, run.E2E))
    assert set(parsed) == {"correct", "attempted", "failed", "metrics"}
    assert list(parsed["metrics"]) == list(run.E2E)
    with pytest.raises(run.BenchError):
        run.result_line(True, 3, 0, {**values, "extra": 2.0}, run.E2E)
    with pytest.raises(run.BenchError):
        run.result_line(True, 3, 0, {k: v for k, v in values.items() if k != "setup_s"}, run.E2E)


def test_traced_metrics_cover_every_per_layer_name():
    assert list(layers.metrics(Tracer(), 1e-6)) == list(layers.PER_LAYER)
