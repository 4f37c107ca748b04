"""Tests for the observability subsystem (``repro.obs``).

Covers the three layers in isolation (metrics registry, span tracer,
logging/warn dedup) and wired into real sweeps: spans and counters from a
sequential run, shard merging across a real worker pool, determinism of
the instrumented sweep against an uninstrumented one, the checkpoint
summary sidecar, the disabled path's freedom from per-cycle calls, and
the ``tools/trace_report.py`` renderer.
"""

import dataclasses
import importlib.util
import json
import logging
import os
import pathlib
import sys
import threading

import pytest

from repro import obs
from repro.core import ResonanceTuningController
from repro.obs.log import (
    configure_logging,
    get_logger,
    reset_warn_dedup,
    warn_once,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    Tracer,
    export_chrome_trace,
    load_trace_events,
    merge_shards,
    shard_dir_for,
)
from repro.sim import BenchmarkRunner, ResilienceConfig, SweepConfig
from repro.sim.export import summary_to_dict


def tuning_factory(supply, processor):
    """Module-level (hence picklable) controller factory."""
    return ResonanceTuningController(supply, processor)


SMALL = SweepConfig(n_cycles=2500, warmup_cycles=200)
BENCHMARKS = ("swim", "gzip")


def _reset_obs():
    obs.reset()
    reset_warn_dedup()


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts and ends with observability fully off."""
    _reset_obs()
    yield
    _reset_obs()


def span_names(events):
    return [e["name"] for e in events if e.get("ph") == "X"]


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_inc_and_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", help="requests")
        counter.inc()
        counter.inc(2, labels={"method": "GET"})
        assert counter.value() == 1
        assert counter.value(labels={"method": "GET"}) == 2
        assert registry.counter("requests_total") is counter

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(Exception):
            registry.gauge("x")

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(55.55)
        # finite buckets only; the +Inf overflow lives in ``count``
        assert histogram.cumulative_counts() == [1, 2, 3]

    def test_merge_is_additive_and_commutative(self):
        def build(a, b):
            registry = MetricsRegistry()
            registry.counter("cells").inc(a)
            registry.histogram("lat", buckets=(1.0,)).observe(b)
            return registry

        left, right = build(2, 0.5), build(3, 2.0)
        merged_lr = MetricsRegistry()
        merged_lr.merge(left.snapshot())
        merged_lr.merge(right.snapshot())
        merged_rl = MetricsRegistry()
        merged_rl.merge(right.snapshot())
        merged_rl.merge(left.snapshot())
        assert merged_lr.to_dict() == merged_rl.to_dict()
        assert merged_lr.counter("cells").value() == 5
        assert merged_lr.histogram("lat", buckets=(1.0,)).count == 2

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("runs_total", help="runs").inc(
            3, labels={"technique": "tuning"}
        )
        registry.gauge("workers").set(4)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        text = registry.to_prometheus()
        assert "# HELP runs_total runs" in text
        assert "# TYPE runs_total counter" in text
        assert 'runs_total{technique="tuning"} 3' in text
        assert "workers 4" in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text

    def test_snapshot_round_trip_is_plain_data(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # picklable/serializable by construction

    def test_prometheus_escapes_hostile_label_values(self):
        registry = MetricsRegistry()
        registry.counter(
            "hostile_total", help='backslash \\ and\nnewline'
        ).inc(1, labels={
            "path": 'C:\\tmp\\"x"',
            "note": "line one\nline two",
        })
        text = registry.to_prometheus()
        # Exposition format 0.0.4: label values escape backslash first,
        # then double-quote and newline; HELP escapes backslash+newline.
        assert (
            'hostile_total{note="line one\\nline two",'
            'path="C:\\\\tmp\\\\\\"x\\""} 1'
        ) in text
        assert "# HELP hostile_total backslash \\\\ and\\nnewline" in text
        for line in text.splitlines():
            assert "\n" not in line  # each sample stays one line

    def test_escaping_is_exposition_only(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2, labels={"v": 'a\\b"c\nd'})
        merged = MetricsRegistry()
        merged.merge(registry.snapshot())
        assert merged.counter("c").value(labels={"v": 'a\\b"c\nd'}) == 2


# ----------------------------------------------------------------------
# Tracer and shard merge
# ----------------------------------------------------------------------

class TestTracer:
    def test_span_and_instant_round_trip(self, tmp_path):
        trace_path = str(tmp_path / "trace.json")
        tracer = Tracer(shard_dir_for(trace_path), process_label="test")
        with tracer.span("outer", args={"k": 1}) as args:
            args["outcome"] = "done"
            tracer.instant("ping", args={"n": 2})
        tracer.close()
        export_chrome_trace(trace_path)
        events = load_trace_events(trace_path)
        spans = [e for e in events if e.get("ph") == "X"]
        instants = [e for e in events if e.get("ph") == "i"]
        assert [s["name"] for s in spans] == ["outer"]
        assert spans[0]["args"] == {"k": 1, "outcome": "done"}
        assert spans[0]["dur"] >= 0
        assert [i["name"] for i in instants] == ["ping"]
        assert instants[0]["s"] == "p"
        # cleanup removed the shard directory
        assert not (tmp_path / "trace.json.shards").exists()

    def test_merge_order_is_deterministic(self, tmp_path):
        shard_dir = str(tmp_path / "shards")
        tracer = Tracer(shard_dir)
        for n in range(5):
            tracer.instant(f"e{n}")
        tracer.close()
        first = merge_shards(shard_dir)
        second = merge_shards(shard_dir)
        assert first == second
        assert [e["seq"] for e in first if e["ph"] == "i"] == [1, 2, 3, 4, 5]

    def test_corrupt_shard_line_skipped(self, tmp_path):
        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        good = {"ph": "i", "name": "ok", "ts": 1.0, "pid": 1, "tid": 1,
                "seq": 0, "args": {}}
        (shard_dir / "pid-1.jsonl").write_text(
            json.dumps(good) + "\n" + '{"truncated": tru'
        )
        events = merge_shards(str(shard_dir))
        assert [e["name"] for e in events] == ["ok"]

    def test_export_includes_metadata(self, tmp_path):
        trace_path = str(tmp_path / "t.json")
        tracer = Tracer(shard_dir_for(trace_path))
        tracer.instant("x")
        tracer.close()
        export_chrome_trace(trace_path, metadata={"command": "compare"})
        with open(trace_path) as handle:
            payload = json.load(handle)
        assert payload["otherData"] == {"command": "compare"}
        assert payload["displayTimeUnit"] == "ms"


# ----------------------------------------------------------------------
# Logging and warning dedup
# ----------------------------------------------------------------------

class TestLog:
    def test_warn_once_dedups_by_key(self):
        with pytest.warns(RuntimeWarning, match="disk full"):
            assert warn_once("disk full", key="disk") is True
        assert warn_once("disk full", key="disk") is False
        reset_warn_dedup()
        with pytest.warns(RuntimeWarning):
            assert warn_once("disk full", key="disk") is True

    def test_warn_once_without_key_always_emits(self):
        with pytest.warns(RuntimeWarning):
            assert warn_once("a notice") is True
        with pytest.warns(RuntimeWarning):
            assert warn_once("a notice") is True

    def test_get_logger_lands_under_repro(self):
        assert get_logger("runner").name == "repro.runner"
        assert get_logger("repro.sim").name == "repro.sim"

    def test_configure_logging_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            configure_logging("LOUD")

    def test_configure_logging_lowers_threshold(self):
        configure_logging("DEBUG")
        try:
            assert logging.getLogger("repro").level == logging.DEBUG
        finally:
            configure_logging("WARNING")

    def test_routed_notice_reaches_stderr(self, capsys):
        get_logger("test").warning("plain notice")
        assert "plain notice" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Sweep integration
# ----------------------------------------------------------------------

class TestSweepIntegration:
    def run_sweep(self, tmp_path, workers=1, checkpoint=None):
        obs.configure(
            trace_out=str(tmp_path / "trace.json"),
            metrics_out=str(tmp_path / "metrics.json"),
        )
        resilience = ResilienceConfig(
            workers=workers, checkpoint_path=checkpoint
        )
        with BenchmarkRunner(SMALL) as runner:
            summary = runner.sweep(
                tuning_factory, benchmarks=BENCHMARKS, resilience=resilience
            )
        written = obs.finalize(metadata={"test": True})
        return summary, written

    def test_sequential_sweep_artifacts(self, tmp_path):
        summary, written = self.run_sweep(tmp_path)
        assert [pathlib.Path(p).name for p in written] == [
            "trace.json", "metrics.json", "metrics.prom",
        ]
        events = load_trace_events(str(tmp_path / "trace.json"))
        names = span_names(events)
        for phase in ("sweep", "setup", "execute", "aggregate"):
            assert phase in names
        for benchmark in BENCHMARKS:
            assert f"cell {benchmark}" in names
            assert f"run {benchmark}" in names  # simulation-level span
        sweep_span = next(
            e for e in events if e.get("name") == "sweep" and e["ph"] == "X"
        )
        assert sweep_span["args"]["technique"] == summary.technique
        assert sweep_span["args"]["cells_total"] == len(BENCHMARKS)

        metrics = json.loads((tmp_path / "metrics.json").read_text())
        counters = metrics["counters"]
        assert counters["sim_runs_total"]["samples"]
        assert counters["runner_sweeps_total"]["samples"] == {
            f'{{technique="{summary.technique}"}}': 1
        }
        prom = (tmp_path / "metrics.prom").read_text()
        assert "# TYPE runner_cell_seconds histogram" in prom
        assert "sim_resonant_events_total" in prom

    def test_parallel_sweep_merges_worker_shards(self, tmp_path):
        summary, _ = self.run_sweep(tmp_path, workers=2)
        events = load_trace_events(str(tmp_path / "trace.json"))
        cell_pids = {
            e["pid"] for e in events
            if e.get("ph") == "X" and e.get("cat") == "cell"
        }
        all_pids = {e["pid"] for e in events}
        assert len(all_pids) >= 2  # the parent plus at least one worker
        assert cell_pids  # workers contributed their spans
        # worker metric deltas merged into the parent's registry
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        runner_cells = metrics["counters"]["runner_cells_total"]["samples"]
        assert runner_cells['{status="completed"}'] == len(BENCHMARKS)
        assert "sim_runs_total" in metrics["counters"]
        # no shard litter once the trace is exported
        assert not (tmp_path / "trace.json.shards").exists()

    def test_instrumented_sweep_is_deterministic(self, tmp_path):
        def fingerprint(summary):
            return json.dumps(
                dataclasses.asdict(summary), sort_keys=True
            )

        with BenchmarkRunner(SMALL) as runner:
            plain = runner.sweep(tuning_factory, benchmarks=BENCHMARKS)
        traced, _ = self.run_sweep(tmp_path)
        assert fingerprint(traced) == fingerprint(plain)

    def test_summary_sidecar_written_next_to_checkpoint(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt.json")
        summary, _ = self.run_sweep(tmp_path, checkpoint=checkpoint)
        sidecar = json.loads(
            (tmp_path / "ckpt.json.summary.json").read_text()
        )
        assert sidecar["technique"] == summary.technique
        assert set(sidecar["timings"]) >= {
            "setup", "execute", "aggregate", "total", "checkpoint_io",
        }
        assert sidecar["incidents"] == []

    def test_sidecar_written_without_observability(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt.json")
        with BenchmarkRunner(SMALL) as runner:
            runner.sweep(
                tuning_factory,
                benchmarks=BENCHMARKS,
                resilience=ResilienceConfig(checkpoint_path=checkpoint),
            )
        assert (tmp_path / "ckpt.json.summary.json").exists()

    def test_disabled_by_default(self, tmp_path):
        assert obs.is_configured() is False
        with BenchmarkRunner(SMALL) as runner:
            runner.sweep(tuning_factory, benchmarks=("swim",))
        assert not list(tmp_path.iterdir())
        assert obs.finalize() == []

    def test_reset_deactivates_without_exporting(self, tmp_path):
        obs.configure(
            trace_out=str(tmp_path / "trace.json"),
            metrics_out=str(tmp_path / "metrics.json"),
            profile_out=str(tmp_path / "profile.json"),
        )
        obs.reset()
        assert obs.is_configured() is False
        assert "obs-profiler" not in {t.name for t in threading.enumerate()}
        assert obs.worker_spec() is None
        assert obs.finalize() == []
        assert not (tmp_path / "trace.json").exists()
        assert not (tmp_path / "metrics.json").exists()
        assert not (tmp_path / "profile.json").exists()

    def test_disabled_path_makes_no_per_cycle_calls(self):
        # docs/observability.md: nothing per-cycle touches repro.obs.
        # Count Python calls into it over a sequential sweep at three
        # lengths; base cells take the kernel path and tuning cells the
        # scalar loop, so a per-cycle call on either shows as growth.
        obs_dir = os.path.join(os.path.dirname(obs.__file__), "")

        def obs_calls(n_cycles):
            calls = 0

            def count(frame, event, arg):
                nonlocal calls
                if event == "call" and frame.f_code.co_filename.startswith(
                    obs_dir
                ):
                    calls += 1

            config = SweepConfig(n_cycles=n_cycles, warmup_cycles=200)
            previous = sys.getprofile()
            with BenchmarkRunner(config) as runner:
                sys.setprofile(count)
                try:
                    runner.sweep(tuning_factory, benchmarks=BENCHMARKS)
                finally:
                    sys.setprofile(previous)
            return calls

        assert obs.is_configured() is False
        counts = [obs_calls(n) for n in (400, 800, 1600)]
        assert counts[0] > 0, "the sweep never reached an obs seam"
        assert counts == [counts[0]] * 3, counts


# ----------------------------------------------------------------------
# Export integration
# ----------------------------------------------------------------------

class TestSummaryExport:
    def test_summary_to_dict_carries_timings_and_incidents(self):
        with BenchmarkRunner(SMALL) as runner:
            summary = runner.sweep(tuning_factory, benchmarks=("swim",))
        data = summary_to_dict(summary)
        assert data["timings"]["cells_total"] == 1.0
        assert data["incidents"] == []
        json.dumps(data)  # JSON-clean end to end

    def test_summary_to_dict_tolerates_bare_summaries(self):
        from repro.sim.runner import summarize
        with BenchmarkRunner(SMALL) as runner:
            summary = runner.sweep(tuning_factory, benchmarks=("swim",))
        bare = summarize(
            list(summary.per_benchmark), summary.total_violation_cycles
        )
        data = summary_to_dict(bare)
        assert "timings" not in data
        assert "incidents" not in data


# ----------------------------------------------------------------------
# trace_report tool
# ----------------------------------------------------------------------

def _load_trace_report():
    path = (
        pathlib.Path(__file__).resolve().parents[1]
        / "tools" / "trace_report.py"
    )
    spec = importlib.util.spec_from_file_location("trace_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTraceReport:
    def test_report_on_real_trace(self, tmp_path, capsys):
        obs.configure(trace_out=str(tmp_path / "trace.json"))
        with BenchmarkRunner(SMALL) as runner:
            runner.sweep(tuning_factory, benchmarks=BENCHMARKS)
        obs.finalize()
        report = _load_trace_report()
        assert report.main([str(tmp_path / "trace.json")]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "slowest cells" in out
        assert "execute" in out

    def test_report_rejects_missing_file(self, tmp_path, capsys):
        report = _load_trace_report()
        assert report.main([str(tmp_path / "nope.json")]) == 2

    def test_supervision_and_retry_sections(self):
        report = _load_trace_report()
        events = [
            {"ph": "i", "name": "retry", "cat": "supervision",
             "args": {"benchmark": "swim", "technique": "tuning"},
             "pid": 1, "ts": 1.0},
            {"ph": "i", "name": "pool_rebuild", "cat": "supervision",
             "args": {}, "pid": 1, "ts": 2.0},
        ]
        text = report.render_report(events)
        assert "retry hotspots" in text
        assert "swim / tuning" in text
        assert "pool_rebuild" in text

    def test_empty_shard_dir_exits_cleanly(self, tmp_path, capsys):
        report = _load_trace_report()
        shard_dir = tmp_path / "trace.json.shards"
        shard_dir.mkdir()
        assert report.main([str(shard_dir)]) == 0
        assert "no spans recorded" in capsys.readouterr().out

    def test_missing_shard_dir_exits_cleanly(self, tmp_path, capsys):
        report = _load_trace_report()
        missing = tmp_path / "never-written.shards"
        assert report.main([str(missing)]) == 0
        assert "no spans recorded" in capsys.readouterr().out

    def test_unexported_trace_falls_back_to_shards(self, tmp_path, capsys):
        # A --trace-out path whose process died before export: the
        # shards exist, the merged file does not.
        report = _load_trace_report()
        trace_path = tmp_path / "trace.json"
        shard_dir = trace_path.parent / "trace.json.shards"
        shard_dir.mkdir()
        assert report.main([str(trace_path)]) == 0
        assert "no spans recorded" in capsys.readouterr().out
