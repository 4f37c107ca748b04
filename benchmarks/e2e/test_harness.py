"""Tests of the end-to-end benchmark harness (outside the tier-1 suite).

    python -m pytest benchmarks/e2e -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()

    class Inner:
        def work(self):
            clock.now += 2.0

    class Outer:
        def work(self):
            clock.now += 1.0
            Inner().work()
            Inner().work()
            clock.now += 3.0

    original = Outer.__dict__["work"]
    tracer = layers.Tracer(
        [
            layers.EntryPoint(Outer, "work", "outer", span=True),
            layers.EntryPoint(Inner, "work", "inner"),
        ],
        clock=clock,
    )
    with tracer.installed(), tracer.span("pass 0"):
        Outer().work()

    assert Outer.__dict__["work"] is original
    assert tracer.layer_totals() == {
        "outer": {"calls": 1, "self_s": 4.0},
        "inner": {"calls": 2, "self_s": 4.0},
    }
    assert tracer.leaf_calls("Inner.work") == 2
    assert tracer.leaf_calls("Outer.work") == 0
    outer, harness = tracer.spans
    assert (outer["name"], outer["dur"]) == ("Outer.work", 8.0)
    assert (harness["name"], harness["parent"]) == ("pass 0", None)
    assert outer["parent"] == harness["id"]


def test_p75_needs_forty_cell_samples():
    with pytest.raises(ValueError, match="39 cell samples"):
        run.cell_percentiles([1.0] * 39)
    assert run.cell_percentiles(list(range(1, 41))) == (20.5, 30.25)


def test_fingerprint_ignores_key_order_but_sees_one_ulp():
    record = {"slowdown": 1.0, "rows": [0.1, 2], "name": "swim"}
    reordered = {"name": "swim", "rows": [0.1, 2], "slowdown": 1.0}
    nudged = dict(record, slowdown=math.nextafter(1.0, 2.0))
    fingerprint = workloads.fingerprint
    assert fingerprint([record]) == fingerprint([reordered])
    assert fingerprint([nudged]) != fingerprint([record])


def _report(fingerprint="f"):
    passes = [
        {"traced": traced, "wall_s": 2.0 if traced else 1.0,
         "gaps_s": [0.1] * 40, "fingerprint": fingerprint, "problems": [],
         "worker_cpu_s": 0.0, "checkpoint_io_s": 0.0, "execute_s": 1.0}
        for traced in (False, True)
    ]
    return {
        "passes": passes, "cells": 21, "cycles_per_cell": 100,
        "workers": 1, "traced": False, "setup_s": 0.5, "peak_rss_mb": 50.0,
        "layers": {"uarch.pipeline": {"calls": 10, "self_s": 1.5}},
        "counts": dict(
            layers.SimulatorCounters().totals(),
            **{"sim.runner.base_cache_hits": 0},
        ),
    }


def test_every_declared_metric_is_reported_with_its_unit():
    reports = [_report() for _ in range(run.PROCESSES)]
    reported = {**run.end_to_end(reports), **run.per_layer(reports)}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for item in spec["end_to_end"] + spec["per_layer"]:
        assert reported[item["name"]][1] == item["unit"], item["name"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    assert reported["uarch.pipeline.share"][0] == 0.75
    assert reported["unattributed.share"][0] == 0.25
    assert reported["trace_overhead"][0] == 1.0


def test_fingerprint_mismatch_fails_every_cell():
    reports = [_report("a"), _report("b")]
    check = run.check_outputs("tuning_sweep", 7, reports, expected={})
    assert check["failed"] == check["attempted"] == 4 * 21
    assert check["error_rate"] == 1.0


def test_a_process_past_its_timeout_fails_only_its_workload(monkeypatch):
    monkeypatch.setattr(run, "PROCESS_MARGIN_S", 0.0)
    entry, sections, events, reports = run.measure_workload(
        "tuning_sweep", 0, 0.03, [0], {}, 0.0
    )
    assert entry["check"]["attempted"] == entry["check"]["failed"] == 1
    assert "timeout" in entry["check"]["problems"][0]
    assert (sections, events, reports) == ({}, [], [])


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_smoke_pass_reproduces_under_tracing(name, tmp_path):
    workload = workloads.BUILDERS[name](3, str(tmp_path), smoke=True)
    clock = workloads.CellClock()
    outputs = workload.run_pass(clock)
    assert workload.verify(outputs) == []
    assert 0 < len(clock.gaps(workload.workers)) < workload.cells

    tracer = layers.Tracer(
        layers.simulator_entry_points(layers.SimulatorCounters())
    )
    with tracer.installed():
        traced = workload.run_pass(workloads.CellClock())
    assert workload.verify(traced) == []
    assert workloads.fingerprint(traced) == workloads.fingerprint(outputs)
    assert tracer.layer_totals()["sim.runner"]["calls"] > 0
