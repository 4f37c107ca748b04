"""Tests for the resilient experiment runner (repro.sim.runner).

Covers: SweepConfig/ResilienceConfig construction validation, the bounded
base-run cache, failure reporting and bounded retry with deterministic
re-seeding, per-cell timeouts, the checkpoint write/resume round trip
(killed mid-sweep -> resumed summary byte-identical to an uninterrupted
one), and the experiment registry's name suggestions and flag plumbing.
"""

import dataclasses
import json

import pytest

from repro.core import ResonanceTuningController
from repro.errors import ConfigurationError, FaultError
from repro.sim import (
    BenchmarkRunner,
    FailureReport,
    ResilienceConfig,
    SweepConfig,
    load_checkpoint,
)
from repro.sim.checkpoint import cell_key


def tuning_factory(supply, processor):
    return ResonanceTuningController(supply, processor)


def summary_fingerprint(summary):
    """Byte-exact serialisation of a TechniqueSummary for equality checks."""
    return json.dumps(dataclasses.asdict(summary), sort_keys=True)


SMALL = SweepConfig(n_cycles=3000, warmup_cycles=200)


# ----------------------------------------------------------------------
# Construction validation
# ----------------------------------------------------------------------

class TestSweepConfigValidation:
    def test_rejects_non_positive_cycles(self):
        with pytest.raises(ConfigurationError):
            SweepConfig(n_cycles=0)
        with pytest.raises(ConfigurationError):
            SweepConfig(n_cycles=-5)

    def test_rejects_negative_warmup(self):
        with pytest.raises(ConfigurationError):
            SweepConfig(warmup_cycles=-1)

    def test_rejects_non_positive_trace_instructions(self):
        with pytest.raises(ConfigurationError):
            SweepConfig(trace_instructions=0)

    def test_valid_config_constructs(self):
        config = SweepConfig(n_cycles=1000, warmup_cycles=0,
                             trace_instructions=60_000)
        assert config.instructions() == 60_000


class TestResilienceConfigValidation:
    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(timeout_s=0)

    def test_rejects_negative_retries(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(max_retries=-1)

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(resume=True)

    def test_runner_rejects_unbounded_cache(self):
        with pytest.raises(ConfigurationError):
            BenchmarkRunner(SMALL, max_base_cache_entries=0)

    def test_rejects_negative_workers(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(workers=-1)

    def test_rejects_negative_backoff(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(backoff_base_s=-0.5)

    def test_rejects_non_positive_heartbeat_staleness(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(heartbeat_stale_s=0)

    def test_harness_error_names_knob_and_value(self):
        from repro.errors import HarnessError

        with pytest.raises(HarnessError) as caught:
            ResilienceConfig(drain_deadline_s=-2.5)
        # The message must name the knob and the offending value.
        assert "drain_deadline_s" in str(caught.value)
        assert "-2.5" in str(caught.value)


# ----------------------------------------------------------------------
# Base-run cache bound
# ----------------------------------------------------------------------

class TestBaseCache:
    def test_cache_hit_reuses_result(self):
        runner = BenchmarkRunner(SMALL)
        first = runner.run_base("swim")
        assert runner.run_base("swim") is first

    def test_cache_is_bounded_lru(self):
        runner = BenchmarkRunner(SMALL, max_base_cache_entries=2)
        a = runner.run_base("swim", seed=1)
        runner.run_base("swim", seed=2)
        runner.run_base("swim", seed=1)      # refresh a
        runner.run_base("swim", seed=3)      # evicts seed=2, not a
        assert len(runner._base_cache) == 2
        assert runner.run_base("swim", seed=1) is a
        assert runner._base_key("swim", 2) not in runner._base_cache

    def test_cache_key_includes_config(self):
        """Mutating runner.config must not serve stale base runs."""
        runner = BenchmarkRunner(SMALL)
        short = runner.run_base("swim")
        runner.config = SweepConfig(n_cycles=4000, warmup_cycles=200)
        longer = runner.run_base("swim")
        assert longer is not short
        assert longer.cycles > short.cycles

    def test_clear_cache_forces_recompute(self):
        runner = BenchmarkRunner(SMALL)
        first = runner.run_base("swim")
        runner.clear_cache()
        assert len(runner._base_cache) == 0
        second = runner.run_base("swim")
        assert second is not first
        # deterministic: the recomputed run matches the original
        assert second.cycles == first.cycles
        assert second.violation_cycles == first.violation_cycles


# ----------------------------------------------------------------------
# Failure handling and retries
# ----------------------------------------------------------------------

class BrokenSupply:
    """A supply stand-in whose step always explodes."""

    def __init__(self, supply):
        self._supply = supply

    def step(self, cpu_current):
        raise RuntimeError("melted")

    def __getattr__(self, name):
        return getattr(self._supply, name)


def break_benchmark(target):
    def transform(supply, benchmark):
        return BrokenSupply(supply) if benchmark == target else supply

    return transform


class TestFailureReports:
    def test_failed_cell_becomes_failure_report(self):
        runner = BenchmarkRunner(SMALL, supply_transform=break_benchmark("swim"))
        summary = runner.sweep(tuning_factory, benchmarks=("swim", "gzip"))
        assert len(summary.failures) == 1
        failure = summary.failures[0]
        assert isinstance(failure, FailureReport)
        assert failure.benchmark == "swim"
        assert failure.technique == "resonance-tuning"
        assert failure.error_type == "RuntimeError"
        assert "melted" in failure.message
        assert failure.attempts == 1
        # the healthy benchmark still produced its row
        assert [row.benchmark for row in summary.per_benchmark] == ["gzip"]

    def test_retry_budget_is_spent_and_recorded(self):
        runner = BenchmarkRunner(SMALL, supply_transform=break_benchmark("swim"))
        summary = runner.sweep(
            tuning_factory,
            benchmarks=("swim", "gzip"),
            resilience=ResilienceConfig(max_retries=2),
        )
        assert summary.failures[0].attempts == 3
        assert summary.failures[0].seed is not None  # last retry was re-seeded

    def test_all_cells_failing_raises_fault_error(self):
        runner = BenchmarkRunner(
            SMALL, supply_transform=lambda supply, name: BrokenSupply(supply)
        )
        with pytest.raises(FaultError, match="every cell"):
            runner.sweep(tuning_factory, benchmarks=("swim",))

    def test_flaky_cell_recovers_on_retry(self):
        calls = {"count": 0}

        class FlakyOnce:
            def __init__(self, supply):
                self._supply = supply

            def step(self, cpu_current):
                if calls["count"] == 0:
                    calls["count"] += 1
                    raise RuntimeError("transient")
                return self._supply.step(cpu_current)

            def __getattr__(self, name):
                return getattr(self._supply, name)

        runner = BenchmarkRunner(
            SMALL, supply_transform=lambda supply, name: FlakyOnce(supply)
        )
        summary = runner.sweep(
            tuning_factory,
            benchmarks=("swim",),
            resilience=ResilienceConfig(max_retries=1),
        )
        assert summary.failures == ()
        assert len(summary.per_benchmark) == 1


class TestTimeout:
    def test_hung_cell_times_out_into_failure_report(self):
        import time

        class HungSupply:
            def __init__(self, supply):
                self._supply = supply

            def step(self, cpu_current):
                time.sleep(30)
                return self._supply.step(cpu_current)

            def __getattr__(self, name):
                return getattr(self._supply, name)

        def hang_swim(supply, benchmark):
            return HungSupply(supply) if benchmark == "swim" else supply

        runner = BenchmarkRunner(SMALL, supply_transform=hang_swim)
        summary = runner.sweep(
            tuning_factory,
            benchmarks=("swim", "gzip"),
            resilience=ResilienceConfig(timeout_s=2.0),
        )
        assert len(summary.failures) == 1
        failure = summary.failures[0]
        assert failure.benchmark == "swim"
        assert failure.error_type == "FaultError"
        assert "timeout" in failure.message
        assert [row.benchmark for row in summary.per_benchmark] == ["gzip"]


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------

class TestCheckpointResume:
    BENCHMARKS = ("swim", "gzip", "parser")

    def uninterrupted(self):
        runner = BenchmarkRunner(SMALL)
        return runner.sweep(tuning_factory, benchmarks=self.BENCHMARKS)

    def test_checkpoint_written_after_each_cell(self, tmp_path):
        path = str(tmp_path / "ck.json")
        seen = []

        runner = BenchmarkRunner(SMALL)
        runner.sweep(
            tuning_factory,
            benchmarks=self.BENCHMARKS,
            progress=lambda name, metrics: seen.append(
                len(load_checkpoint(path)["cells"])
            ),
            resilience=ResilienceConfig(checkpoint_path=path),
        )
        # after cell k completes the checkpoint already holds k+1 cells
        assert seen == [1, 2, 3]
        data = load_checkpoint(path)
        assert data["n_cycles"] == SMALL.n_cycles
        assert set(data["cells"]) == {
            cell_key(0, name, "resonance-tuning", None)
            for name in self.BENCHMARKS
        }

    def test_killed_mid_sweep_resume_is_byte_identical(self, tmp_path):
        path = str(tmp_path / "ck.json")

        class Kill(BaseException):
            """Out of Exception's reach: the runner must not retry it."""

        remaining = {"cells": 2}

        def kill_after_two(name, metrics):
            remaining["cells"] -= 1
            if remaining["cells"] == 0:
                raise Kill()

        first = BenchmarkRunner(
            SMALL, resilience=ResilienceConfig(checkpoint_path=path)
        )
        with pytest.raises(Kill):
            first.sweep(
                tuning_factory,
                benchmarks=self.BENCHMARKS,
                progress=kill_after_two,
            )
        assert len(load_checkpoint(path)["cells"]) == 2

        resumed_runner = BenchmarkRunner(
            SMALL,
            resilience=ResilienceConfig(checkpoint_path=path, resume=True),
        )
        computed = []
        resumed = resumed_runner.sweep(
            tuning_factory,
            benchmarks=self.BENCHMARKS,
            progress=lambda name, metrics: computed.append(name),
        )
        assert summary_fingerprint(resumed) == summary_fingerprint(
            self.uninterrupted()
        )
        assert resumed == self.uninterrupted()

    def test_resume_skips_completed_cells(self, tmp_path):
        path = str(tmp_path / "ck.json")
        warm = BenchmarkRunner(
            SMALL, resilience=ResilienceConfig(checkpoint_path=path)
        )
        warm.sweep(tuning_factory, benchmarks=self.BENCHMARKS)

        # a resumed sweep touches no simulation at all: even an
        # always-broken supply cannot fail it
        resumed = BenchmarkRunner(
            SMALL,
            resilience=ResilienceConfig(checkpoint_path=path, resume=True),
            supply_transform=lambda supply, name: BrokenSupply(supply),
        )
        summary = resumed.sweep(tuning_factory, benchmarks=self.BENCHMARKS)
        assert summary.failures == ()
        assert summary == self.uninterrupted()

    def test_mismatched_checkpoint_is_rejected(self, tmp_path):
        path = str(tmp_path / "ck.json")
        warm = BenchmarkRunner(
            SMALL, resilience=ResilienceConfig(checkpoint_path=path)
        )
        warm.sweep(tuning_factory, benchmarks=("swim",))

        other = BenchmarkRunner(
            SweepConfig(n_cycles=4000, warmup_cycles=200),
            resilience=ResilienceConfig(checkpoint_path=path, resume=True),
        )
        with pytest.raises(ConfigurationError, match="does not match"):
            other.sweep(tuning_factory, benchmarks=("swim",))

    def test_corrupt_version_is_rejected(self, tmp_path):
        from repro.errors import CheckpointError

        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"version": 99, "cells": {}}))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(str(path))

    def test_multiple_sweeps_on_one_runner_get_distinct_keys(self, tmp_path):
        path = str(tmp_path / "ck.json")
        runner = BenchmarkRunner(
            SMALL, resilience=ResilienceConfig(checkpoint_path=path)
        )
        runner.sweep(tuning_factory, benchmarks=("swim",))
        runner.sweep(tuning_factory, benchmarks=("swim",))
        keys = set(load_checkpoint(path)["cells"])
        assert keys == {
            cell_key(0, "swim", "resonance-tuning", None),
            cell_key(1, "swim", "resonance-tuning", None),
        }


# ----------------------------------------------------------------------
# Empty / zero-byte checkpoint salvage
# ----------------------------------------------------------------------

class TestEmptyCheckpointSalvage:
    """A checkpoint truncated to nothing (crash during the very first
    durable write, or a filesystem that zeroed the file) must never be
    mistaken for valid state -- and must never block a resume either."""

    def test_zero_byte_checkpoint_raises_without_salvage(self, tmp_path):
        from repro.errors import CheckpointError

        path = tmp_path / "ck.json"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_whitespace_only_checkpoint_raises_without_salvage(
        self, tmp_path
    ):
        from repro.errors import CheckpointError

        path = tmp_path / "ck.json"
        path.write_text("   \n\n  ")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_salvage_of_zero_byte_checkpoint_quarantines_it(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_bytes(b"")
        with pytest.warns(RuntimeWarning, match="salvaged 0"):
            data = load_checkpoint(str(path), salvage=True)
        assert data["salvaged"] is True
        assert data["cells"] == {}
        # The empty original moved aside; the path is free for a clean write.
        assert not path.exists()
        assert (tmp_path / "ck.json.corrupt-0").exists()

    def test_resume_from_zero_byte_checkpoint_recomputes_everything(
        self, tmp_path
    ):
        path = tmp_path / "ck.json"
        path.write_bytes(b"")
        golden = BenchmarkRunner(SMALL).sweep(
            tuning_factory, benchmarks=("swim",)
        )
        with pytest.warns(RuntimeWarning):
            resumed = BenchmarkRunner(SMALL).sweep(
                tuning_factory,
                benchmarks=("swim",),
                resilience=ResilienceConfig(
                    checkpoint_path=str(path), resume=True
                ),
            )
        assert summary_fingerprint(resumed) == summary_fingerprint(golden)
        # And the rewritten checkpoint is whole again.
        assert len(load_checkpoint(str(path))["cells"]) == 1


# ----------------------------------------------------------------------
# Registry integration
# ----------------------------------------------------------------------

class TestRegistry:
    def test_unknown_name_suggests_close_matches(self):
        from repro.experiments.registry import run_experiment

        with pytest.raises(KeyError) as excinfo:
            run_experiment("tabel3")
        assert "table3" in str(excinfo.value)

    def test_unknown_name_without_match_lists_catalogue(self):
        from repro.experiments.registry import run_experiment

        with pytest.raises(KeyError) as excinfo:
            run_experiment("zzzz")
        assert "table2" in str(excinfo.value)

    def test_fault_injection_experiment_is_registered(self):
        from repro.experiments.registry import EXTENSIONS

        assert "ablation-fault-injection" in EXTENSIONS

    def test_resilience_flags_round_trip(self):
        from repro.cli import build_parser
        from repro.experiments.registry import resilience_from_args

        parser = build_parser()
        args = parser.parse_args([
            "experiment", "table3", "--quick",
            "--checkpoint", "/tmp/x.json", "--resume",
            "--max-retries", "2", "--timeout-s", "5",
        ])
        resilience = resilience_from_args(args)
        assert resilience == ResilienceConfig(
            timeout_s=5.0, max_retries=2,
            checkpoint_path="/tmp/x.json", resume=True,
        )

    def test_default_flags_mean_no_resilience(self):
        from repro.cli import build_parser
        from repro.experiments.registry import resilience_from_args

        parser = build_parser()
        args = parser.parse_args(["experiment", "table3"])
        assert resilience_from_args(args) is None
