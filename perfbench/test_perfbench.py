"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import benchlib
from tracing import Target, Tracer, install, spans_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def test_tail_percentile_is_the_highest_with_ten_samples_beyond():
    assert benchlib.tail_percentile(1000) == 99.0
    assert benchlib.tail_percentile(999) == 90.0
    assert benchlib.tail_percentile(100) == 90.0
    assert benchlib.tail_percentile(99) == 50.0
    assert benchlib.tail_percentile(20) == 50.0
    assert benchlib.tail_percentile(19) is None
    assert benchlib.tail_percentile(100_000) == 99.0  # capped: same metric at any speed


def test_tail_values():
    values = list(range(1, 1001))
    assert benchlib.tail(values) == ("p99", 990)
    assert sum(v > 990 for v in values) == 10
    assert benchlib.tail(list(range(20))) == ("p50", 9)
    with pytest.raises(ValueError):
        benchlib.tail(list(range(19)))
    assert benchlib.percentile([5, 1, 3], 50) == 3


def test_speed_log_scales_by_the_mean_slice_around_a_timing():
    ref = benchlib.REFERENCE_SLICE_MS / 1000.0
    log = benchlib.SpeedLog()
    for when, seconds in ((0.0, ref), (0.5, ref), (2.0, 2 * ref), (3.0, 4 * ref)):
        log.record(when, seconds)
    assert log.scale(0.0, 3.0) == 0.5  # mean slice 2 * ref
    assert log.scale(2.0, 2.0) == 0.5  # widened to 1.5 .. 2.5
    assert log.scale(0.2, 0.3) == 1.0  # widened to -0.25 .. 0.75
    with pytest.raises(ValueError):
        log.scale(10.0, 10.0)


def test_speed_slice_times_cpu_work():
    assert 0.0 < benchlib.speed_slice() < 1.0


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_children_and_aggregates_per_parent():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 4.0, 5.0, 7.0, 10.0, 20.0, 21.0]))
    tracer.enter("outer")  # 0
    tracer.enter("inner")  # 1
    tracer.exit()  # 4: inner 3
    tracer.enter("inner")  # 5
    tracer.exit()  # 7: inner 2
    tracer.exit()  # 10: outer 10, self 5
    tracer.enter("inner")  # 20
    tracer.exit()  # 21: inner 1, top level
    assert tracer.aggregate[("outer", "")] == [1, 10.0, 5.0]
    assert tracer.aggregate[("inner", "outer")] == [2, 5.0, 5.0]
    assert tracer.aggregate[("inner", "")] == [1, 1.0, 1.0]
    trace = tracer.to_dict()
    assert benchlib.layer_value(trace, "inner.s") == 6.0
    assert benchlib.layer_value(trace, "inner.calls") == 3
    assert trace["spans"][0] == {"name": "inner", "start": 1.0, "end": 4.0, "parent": "outer"}


def test_generator_is_timed_per_next_and_wrappers_come_off():
    from ncpverify import enumeration, pipeline

    original = enumeration.enumerate_chains
    tracer = Tracer()
    target = Target(
        "enumeration",
        "enumerate_chains",
        generator=True,
        on_result=lambda c, a, item: c.update(("enumeration.enumerate_chains.items",)),
    )
    uninstall = install(tracer, (target,))
    try:
        assert pipeline.enumerate_chains is enumeration.enumerate_chains is not original
        texts = [c.text() for c in pipeline.enumerate_chains(5, rank_filter=(1,))]
    finally:
        uninstall()
    assert pipeline.enumerate_chains is enumeration.enumerate_chains is original
    assert texts == [c.text() for c in original(5, rank_filter=(1,))]
    assert tracer.counts["enumeration.enumerate_chains.items"] == len(texts)
    assert tracer.counts["enumeration.enumerate_chains.calls"] == 1
    assert benchlib.layer_value(tracer.to_dict(), "enumeration.enumerate_chains.calls") == 1
    assert spans_of(tracer.to_dict(), "enumeration.enumerate_chains") == len(texts) + 1


def test_golden_json_ignores_added_keys_but_not_changes():
    golden = {"n": 7, "classes": [{"a": True, "b": None}], "survey": {"x": 1}}
    added = {"n": 7, "classes": [{"a": True, "b": None, "reason": "r"}], "survey": {"x": 1}, "stages": {}}
    assert benchlib.json_mismatches(golden, added) == []
    assert benchlib.json_mismatches(golden, {**added, "n": 6}) == ["$.n: expected 7, got 6"]
    assert benchlib.json_mismatches(golden, {"n": 7, "classes": [], "survey": {"x": 1}})
    assert benchlib.json_mismatches(golden, {"classes": [{"a": 1, "b": None}], "survey": {}, "n": 7}) == [
        "$.classes[0].a: expected True, got 1",
        "$.survey.x: missing",
    ]


def test_golden_csv_ignores_added_columns_but_not_changes():
    golden = "a,b\n1,2\n3,4\n"
    assert benchlib.csv_mismatches(golden, "a,extra,b\n1,x,2\n3,y,4\n") == []
    assert benchlib.csv_mismatches(golden, "a,b\n1,2\n3,5\n") == ["row 1 column b: expected '4', got '5'"]
    assert benchlib.csv_mismatches(golden, "a\n1\n3\n") == ["missing columns ['b']"]
    assert benchlib.csv_mismatches(golden, "a,b\n1,2\n")


def test_golden_lines_must_appear_in_order():
    assert benchlib.missing_lines(["x", "z"], ["x", "new", "z"]) == []
    assert benchlib.missing_lines(["x", "z"], ["z", "x"]) == ["z"]


def test_wrappers_leave_theorem5_reports_unchanged(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = []
    for name, prefix in (
        ("plain", [sys.executable, "-m", "ncpverify.cli"]),
        ("traced", [sys.executable, str(HERE / "worker.py"), "cli", "--trace", str(tmp_path / "t.json"), "--"]),
    ):
        args = ["theorem5", "--n", "7", "--json", str(tmp_path / f"{name}.json"), "--csv", str(tmp_path / f"{name}.csv")]
        done = subprocess.run(prefix + args, env=env, capture_output=True, timeout=300)
        assert done.returncode == 2
        outputs.append(
            (done.stdout, (tmp_path / f"{name}.json").read_bytes(), (tmp_path / f"{name}.csv").read_bytes())
        )
    assert outputs[0] == outputs[1]
    trace = json.loads((tmp_path / "t.json").read_text(encoding="ascii"))
    assert trace["counts"]["pipeline.chains_scanned"] == 12432
    assert benchlib.layer_value(trace, "condition4.cond_iv.calls") > 0
