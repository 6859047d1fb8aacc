"""Tests of the benchmark's own arithmetic, hooks and metric names.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import re
import types
from pathlib import Path

import pytest

import run
from layers import HOOKS, PER_LAYER, tail_level
from tracing import HookError, Span, Tracer, self_times, union_length

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_union_of_disjoint_nested_and_overlapping_intervals():
    assert union_length([], 0.0, 10.0) == 0.0
    assert union_length([(1, 2), (4, 6)], 0, 10) == 3
    assert union_length([(1, 8), (2, 3), (4, 5)], 0, 10) == 7  # nested
    assert union_length([(1, 4), (3, 6), (5, 7)], 0, 10) == 6  # chained overlaps
    assert union_length([(1, 2), (2, 3)], 0, 10) == 2  # touching


def test_union_clips_children_to_the_parent():
    assert union_length([(-5, 2), (8, 15)], 0, 10) == 4
    assert union_length([(11, 12), (-3, -1)], 0, 10) == 0


def test_self_time_subtracts_the_union_of_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: union of a and b is 5
        Span("a.child", 1.5, 3.5, 1),  # grandchild: counted once, inside a
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 2.0])


def test_tracer_records_nested_spans_with_parents_and_errors():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    mod = types.ModuleType("fake")

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        mod.inner()
        clock.now += 1.0

    def broken():
        raise ValueError("boom")

    mod.inner, mod.outer, mod.broken = inner, outer, broken
    seen = []
    tracer.wrap(mod, "inner", "layer.inner")
    tracer.wrap(mod, "outer", "layer.outer", after=lambda span, a, k, result, token: seen.append(span.name))
    tracer.wrap(mod, "broken", "layer.broken")

    mod.outer()  # disabled: forwards without recording
    assert tracer.spans == [] and seen == []
    tracer.enabled = True
    mod.outer()
    with pytest.raises(ValueError):
        mod.broken()
    names = [(s.name, s.parent, s.duration) for s in tracer.spans]
    assert names == [("layer.outer", -1, 4.0), ("layer.inner", 0, 2.0), ("layer.broken", -1, 0.0)]
    assert tracer.spans[2].attrs == {"error": "ValueError"}
    assert self_times(tracer.spans)[:2] == [2.0, 2.0]
    assert seen == ["layer.outer"]
    assert [h.fired for h in tracer.hooks] == [1, 1, 1]

    tracer.unwrap_all()
    assert (mod.inner, mod.outer, mod.broken) == (inner, outer, broken)


def test_missing_hook_target_fails_instead_of_reporting_zero():
    with pytest.raises(HookError, match="fake.gone"):
        Tracer().wrap(types.ModuleType("fake"), "gone", "layer.gone")


def test_every_hook_target_exists_and_unwraps():
    pytest.importorskip("zicount")
    import importlib

    from layers import ZicountTrace

    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in HOOKS}
    trace = ZicountTrace("s1_aic")
    try:
        assert len(trace.tracer.hooks) == len(HOOKS)
        assert all(getattr(importlib.import_module(m), a) is not originals[(m, a)] for m, a, _, _ in HOOKS)
    finally:
        trace.tracer.unwrap_all()
    assert all(getattr(importlib.import_module(m), a) is originals[(m, a)] for m, a, _, _ in HOOKS)


def test_tail_level_leaves_ten_samples_beyond_it():
    assert tail_level(120) == 90.0
    assert tail_level(101) == 90.0
    assert tail_level(50) == 80.0
    assert tail_level(12) == 50.0


def test_metric_names_and_units_follow_the_grammar():
    metrics = [m[:2] for m in run.END_TO_END] + [m[:2] for m in PER_LAYER]
    names = [n for n, _ in metrics] + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert all(UNIT.fullmatch(u) for _, u in metrics)
    assert NAME.fullmatch("a" * 64) and not NAME.fullmatch("a" * 65)
    assert not NAME.fullmatch("_leading") and not NAME.fullmatch("has space")


def test_benchmark_json_matches_the_code():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
