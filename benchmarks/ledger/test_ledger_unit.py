"""Unit tests of the ledger's own helpers (fast; collected by tier-1)."""

from __future__ import annotations

import json
import types
from pathlib import Path

import pytest

import harness
import measure
import spans
import workloads
from spans import Span

REPO = Path(__file__).resolve().parents[2]


# -- measure ------------------------------------------------------------


def test_percentile_interpolates():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert measure.percentile(samples, 0) == 1.0
    assert measure.percentile(samples, 50) == 2.5
    assert measure.percentile(samples, 100) == 4.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    with pytest.raises(ValueError):
        measure.percentile(samples, 101)


def test_tail_needs_ten_samples_beyond():
    assert measure.supported_tail(99) == 0.0
    assert measure.supported_tail(100) == 90.0
    assert measure.supported_tail(199) == 90.0
    assert measure.supported_tail(200) == 95.0
    assert measure.supported_tail(999) == 95.0
    assert measure.supported_tail(1000) == 99.0
    assert measure.supported_tail(10_000) == 99.9
    # too few samples: no tail at all, never a maximum posing as a p99
    assert measure.tail([1.0] * 50) == (0.0, 0.0)
    p, value = measure.tail([float(i) for i in range(1000)])
    assert p == 99.0 and value == pytest.approx(989.01)


def test_spread_and_worsening():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert measure.spread(values) == pytest.approx(5.5 / 14.5)
    assert measure.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert measure.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)


# -- spans --------------------------------------------------------------


def test_self_time_subtracts_sequential_children():
    trace = [
        Span(0, "root", 0.0, 10.0, spans.ROOT, 1),
        Span(1, "a", 1.0, 4.0, 0, 1),
        Span(2, "b", 5.0, 9.0, 0, 1),
        Span(3, "c", 6.0, 7.0, 2, 1),
    ]
    assert spans.self_times(trace) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}
    assert spans.layer_seconds(trace) == {"root": 3.0, "a": 3.0, "b": 3.0, "c": 1.0}


def test_self_time_shares_overlapping_children_and_sums_to_wall():
    trace = [
        Span(0, "root", 0.0, 10.0, spans.ROOT, 1),
        Span(1, "chunk", 2.0, 8.0, 0, 1),
        Span(2, "chunk", 2.0, 6.0, 0, 1),
    ]
    own = spans.self_times(trace)
    # 2..6 is shared by both chunks, 6..8 belongs to the longer one
    assert own == {0: 4.0, 1: 4.0, 2: 2.0}
    assert sum(own.values()) == pytest.approx(10.0)


def test_wrap_records_nesting_and_unwrap_restores():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    module = types.ModuleType("fake_layer")
    module.helper = lambda: 7
    layer = Layer()
    recorder = spans.SpanRecorder()
    seen = []
    recorder.wrap(layer, "outer", "layer.outer")  # instance attribute
    recorder.wrap(Layer, "inner", "layer.inner", on_result=seen.append)  # class
    recorder.wrap(module, "helper", "layer.helper")  # module attribute
    recorder.op = 5
    assert layer.outer() == 2 and module.helper() == 7
    with recorder.paused():
        layer.outer()
    by_name = {span.name: span for span in recorder.spans}
    assert set(by_name) == {"layer.outer", "layer.inner", "layer.helper"}
    assert len(recorder.spans) == 3
    assert by_name["layer.inner"].parent == by_name["layer.outer"].id
    assert by_name["layer.outer"].parent == spans.ROOT
    assert by_name["layer.outer"].op == 5
    assert seen == [1]
    recorder.unwrap_all()
    assert "outer" not in vars(layer)
    assert not hasattr(Layer.inner, "_ledger_span")
    assert not hasattr(module.helper, "_ledger_span")


# -- workloads ----------------------------------------------------------


@pytest.fixture
def small_graph(monkeypatch):
    monkeypatch.setattr(workloads, "NUM_NODES", 3000)
    monkeypatch.setattr(workloads, "NUM_EDGES", 36_000)


@pytest.mark.parametrize("workload", ["ingest_bulk", "serve_mixed"])
def test_generator_is_deterministic_and_valid(small_graph, workload):
    plan = workloads.generate(workload, seed=11, seconds=2.0)
    again = workloads.generate(workload, seed=11, seconds=2.0)
    other = workloads.generate(workload, seed=12, seconds=2.0)
    assert plan.digest() == again.digest()
    assert plan.digest() != other.digest()
    # every add names an absent edge, every removal a present one
    present = set(plan.prefix)
    assert len(present) == len(plan.prefix)
    for op in plan.main + plan.canaries:
        if op[0] != "update":
            continue
        for kind, source, target in op[1]:
            if kind == "add":
                assert (source, target) not in present
                present.add((source, target))
            else:
                present.remove((source, target))
    kinds = {op[0] for op in plan.main + plan.canaries}
    assert {"update", "topk", "pprt"} <= kinds
    if workload == "ingest_bulk":
        removes = sum(
            event[0] == "remove" for op in plan.main for event in op[1]
        )
        assert removes == len(plan.main) * (workloads.BULK_SLICE // 10)
    else:
        # no publish follows the last slice: recovery has a WAL tail to replay
        kinds_in_order = [op[0] for op in plan.main]
        assert "publish" in kinds_in_order
        last_publish = len(kinds_in_order) - kinds_in_order[::-1].index("publish")
        assert "update" in kinds_in_order[last_publish:]


# -- schema -------------------------------------------------------------


def test_benchmark_json_names_match_what_run_emits():
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.RATES) == set(workloads.WORKLOADS)
    for section, emitted in (
        ("end_to_end", harness.END_TO_END),
        ("per_layer", harness.PER_LAYER),
    ):
        declared = {metric["name"]: metric["unit"] for metric in spec[section]}
        assert declared == emitted
    assert spec["paths"] == ["benchmarks/ledger"]
    assert spec["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert "setup_s" in harness.END_TO_END
