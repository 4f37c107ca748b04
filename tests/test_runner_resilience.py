"""Tests for the resilient experiment runner (repro.sim.runner).

Covers: SweepConfig/ResilienceConfig construction validation, the
session's base runs and their warm-up, failure reporting and bounded retry
with deterministic re-seeding, per-cell timeouts, the checkpoint
write/resume round trip (killed mid-sweep -> resumed summary
byte-identical to an uninterrupted one), content-keyed checkpoint cells,
the session memo that serves them, and the experiment registry's name
suggestions and flag plumbing.
"""

import dataclasses
import functools
import gc
import json
import os
import subprocess
import sys
import time
import weakref

import pytest

from repro.baselines.damping import PipelineDampingController
from repro.config import TABLE1_SUPPLY, TABLE1_TUNING
from repro.core import NullController, ResonanceTuningController
from repro.errors import ConfigurationError, FaultError
from repro.sim import (
    BenchmarkRunner,
    FailureReport,
    ResilienceConfig,
    Session,
    SweepConfig,
    load_checkpoint,
)
from repro.sim.checkpoint import cell_key, spec_digest
from repro.sim.simulation import Simulation
from repro.uarch.pipeline import Pipeline
from repro.uarch.workloads import SPEC2K


def tuning_factory(supply, processor):
    return ResonanceTuningController(supply, processor)


def spec_of(factory):
    """The spec digest a sweep of ``factory`` at ``SMALL`` keys cells by."""
    return spec_digest(SMALL, None, factory(SMALL.supply, SMALL.processor))


def summary_fingerprint(summary):
    """Byte-exact serialisation of a TechniqueSummary for equality checks."""
    return json.dumps(dataclasses.asdict(summary), sort_keys=True)


SMALL = SweepConfig(n_cycles=3000, warmup_cycles=200)


def held_bases(runner):
    """The (benchmark, seed) of every base run the runner's session holds."""
    return [key[:2] for key in runner.session.bases]


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

    def test_rejects_negative_workers(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(workers=-1)

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
# Base-run cache
# ----------------------------------------------------------------------

class TestBaseCache:
    def test_cache_hit_reuses_result(self):
        runner = BenchmarkRunner(SMALL)
        first = runner.run_base("swim")
        assert runner.run_base("swim") is first

    def test_cache_key_includes_config(self):
        """Mutating runner.config must not serve stale base runs."""
        runner = BenchmarkRunner(SMALL)
        short = runner.run_base("swim")
        runner.config = SweepConfig(n_cycles=4000, warmup_cycles=200)
        longer = runner.run_base("swim")
        assert longer is not short
        assert longer.cycles > short.cycles


# ----------------------------------------------------------------------
# Base-cache prefetch before a sequential sweep
# ----------------------------------------------------------------------

TINY = SweepConfig(n_cycles=400, warmup_cycles=100)
PREFETCH_BENCHMARKS = ("swim", "gzip", "eon")
PREFETCH_SEEDS = (1, 2)


def damping_factory(supply, processor):
    return PipelineDampingController(supply, processor, delta_amps=13.0)


class TestPrefetch:
    def test_one_pipeline_alive_at_a_time(self, monkeypatch):
        # Memory grows with the front ends alive at once (~18 MB each at
        # paper scale), so count reachable pipelines instead of timing
        # the host: each new one is counted after a full collection.
        alive = weakref.WeakSet()
        peak = []
        build = Pipeline.__init__

        def tracked(self, *args, **kwargs):
            gc.collect()
            build(self, *args, **kwargs)
            alive.add(self)
            peak.append(len(alive))

        monkeypatch.setattr(Pipeline, "__init__", tracked)
        cells = [
            (name, seed)
            for name in PREFETCH_BENCHMARKS for seed in PREFETCH_SEEDS
        ]
        assert BenchmarkRunner(TINY).prefetch_base_batch(cells) == 6
        assert max(peak) == 1
        peak.clear()
        with BenchmarkRunner(TINY) as runner:
            for factory in (tuning_factory, damping_factory):
                runner.sweep(
                    factory, benchmarks=PREFETCH_BENCHMARKS,
                    seeds=PREFETCH_SEEDS,
                )
        assert len(peak) == 18  # 6 base and 12 technique runs
        assert max(peak) == 1

    def test_sweep_runs_each_base_once_within_the_cache_bound(
        self, monkeypatch
    ):
        # Each cell reads the base the warm-up cached instead of running
        # it again.
        builds = []
        build = NullController.__init__

        def counted(self, *args, **kwargs):
            builds.append(self)
            build(self, *args, **kwargs)

        monkeypatch.setattr(NullController, "__init__", counted)
        with BenchmarkRunner(TINY) as runner:
            summary = runner.sweep(
                tuning_factory, benchmarks=PREFETCH_BENCHMARKS,
                seeds=PREFETCH_SEEDS,
            )
        assert len(summary.per_benchmark) == 6
        assert len(builds) == 6

    def test_cached_cells_are_refreshed_not_rerun(self):
        runner = BenchmarkRunner(TINY)
        first = runner.run_base("swim", seed=1)
        assert runner.prefetch_base_batch([("swim", 1), ("gzip", 1)]) == 1
        assert runner.run_base("swim", seed=1) is first
        assert held_bases(runner) == [("swim", 1), ("gzip", 1)]

    def test_failed_cell_is_left_uncached(self):
        runner = BenchmarkRunner(TINY, supply_transform=BreakBenchmark("swim"))
        errors = {}
        assert runner.prefetch_base_batch(
            [("swim", 1), ("gzip", 1)], errors=errors
        ) == 1
        assert held_bases(runner) == [("gzip", 1)]
        assert list(errors) == [("swim", 1)]
        assert "melted" in str(errors[("swim", 1)])

    def test_warm_up_failure_is_the_cells_first_attempt(self, monkeypatch):
        # A base that failed in the warm-up is not run again at the same
        # seed: the budget is the warm-up plus max_retries re-seeded runs.
        base_seeds = []
        run = BenchmarkRunner._run_simulation

        def counted(self, benchmark, controller, seed=None, **kwargs):
            if benchmark == "swim" and isinstance(controller, NullController):
                base_seeds.append(seed)
            return run(self, benchmark, controller, seed=seed, **kwargs)

        monkeypatch.setattr(BenchmarkRunner, "_run_simulation", counted)
        runner = BenchmarkRunner(SMALL, supply_transform=BreakBenchmark("swim"))
        summary = runner.sweep(
            tuning_factory,
            benchmarks=("swim", "gzip"),
            resilience=ResilienceConfig(max_retries=1),
        )
        (failure,) = summary.failures
        assert failure.attempts == 2
        assert "melted" in failure.message
        assert base_seeds == [None, SPEC2K["swim"].seed + 104_729]

    def test_should_stop_ends_the_warm_up(self):
        runner = BenchmarkRunner(TINY)
        polls = iter((False, True))
        assert runner.prefetch_base_batch(
            [("swim", 1), ("gzip", 1)], should_stop=lambda: next(polls)
        ) == 1
        assert held_bases(runner) == [("swim", 1)]


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


class BreakBenchmark:
    """Picklable transform breaking every cell of ``target`` (of every
    benchmark when it is None)."""

    def __init__(self, target=None):
        self.target = target

    def __call__(self, supply, benchmark):
        if self.target in (None, benchmark):
            return BrokenSupply(supply)
        return supply


class FlakySupply:
    """A supply whose step fails once for its :class:`FlakyOnce`."""

    def __init__(self, supply, flaky):
        self._supply = supply
        self._flaky = flaky

    def step(self, cpu_current):
        if not self._flaky.failed:
            self._flaky.failed = True
            raise RuntimeError("transient")
        return self._supply.step(cpu_current)

    def __getattr__(self, name):
        return getattr(self._supply, name)


class FlakyOnce:
    """Picklable transform whose supplies fail one step between them."""

    def __init__(self):
        self.failed = False

    def __call__(self, supply, benchmark):
        return FlakySupply(supply, self)


class HungSupply:
    """A supply whose step blocks far beyond any test timeout."""

    def __init__(self, supply):
        self._supply = supply

    def step(self, cpu_current):
        time.sleep(30)
        return self._supply.step(cpu_current)

    def __getattr__(self, name):
        return getattr(self._supply, name)


class HangBenchmark:
    """Picklable transform hanging every cell of one benchmark."""

    def __init__(self, target):
        self.target = target

    def __call__(self, supply, benchmark):
        return HungSupply(supply) if benchmark == self.target else supply


class TestFailureReports:
    def test_failed_cell_becomes_failure_report(self):
        runner = BenchmarkRunner(SMALL, supply_transform=BreakBenchmark("swim"))
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
        runner = BenchmarkRunner(SMALL, supply_transform=BreakBenchmark("swim"))
        summary = runner.sweep(
            tuning_factory,
            benchmarks=("swim", "gzip"),
            resilience=ResilienceConfig(max_retries=2),
        )
        assert summary.failures[0].attempts == 3
        assert summary.failures[0].seed is not None  # last retry was re-seeded

    def test_all_cells_failing_raises_fault_error(self):
        runner = BenchmarkRunner(SMALL, supply_transform=BreakBenchmark())
        with pytest.raises(FaultError, match="every cell"):
            runner.sweep(tuning_factory, benchmarks=("swim",))

    def test_flaky_cell_recovers_on_retry(self):
        runner = BenchmarkRunner(SMALL, supply_transform=FlakyOnce())
        summary = runner.sweep(
            tuning_factory,
            benchmarks=("swim",),
            resilience=ResilienceConfig(max_retries=1),
        )
        assert summary.failures == ()
        assert len(summary.per_benchmark) == 1


class TestTimeout:
    def test_hung_cell_times_out_into_failure_report(self):
        runner = BenchmarkRunner(SMALL, supply_transform=HangBenchmark("swim"))
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
        spec = spec_of(tuning_factory)
        assert set(data["cells"]) == {
            cell_key(spec, name, "resonance-tuning", None)
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

    def test_resume_skips_completed_cells(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ck.json")
        warm = BenchmarkRunner(
            SMALL, resilience=ResilienceConfig(checkpoint_path=path)
        )
        expected = warm.sweep(tuning_factory, benchmarks=self.BENCHMARKS)

        # a resumed sweep touches no simulation at all
        def no_simulation(self, *args, **kwargs):
            raise AssertionError("a resumed cell ran a simulation")

        monkeypatch.setattr(Simulation, "run", no_simulation)
        resumed = BenchmarkRunner(
            SMALL,
            resilience=ResilienceConfig(checkpoint_path=path, resume=True),
        )
        summary = resumed.sweep(tuning_factory, benchmarks=self.BENCHMARKS)
        assert summary.failures == ()
        assert summary == expected
        assert summary.timings["cells_cached"] == len(self.BENCHMARKS)

    def test_resume_at_other_cycle_counts_serves_nothing(self, tmp_path):
        # The content key carries the whole SweepConfig, so a file written
        # at other cycle counts resumes, serves none of its cells, and
        # keeps them for the sweeps they belong to.
        path = str(tmp_path / "ck.json")
        other = SweepConfig(n_cycles=4000, warmup_cycles=200)
        BenchmarkRunner(
            SMALL, resilience=ResilienceConfig(checkpoint_path=path)
        ).sweep(tuning_factory, benchmarks=("swim",))

        resumed = BenchmarkRunner(
            other,
            resilience=ResilienceConfig(checkpoint_path=path, resume=True),
        ).sweep(tuning_factory, benchmarks=("swim",))
        clean = BenchmarkRunner(other).sweep(
            tuning_factory, benchmarks=("swim",)
        )
        assert resumed.timings["cells_cached"] == 0
        assert summary_fingerprint(resumed) == summary_fingerprint(clean)
        assert len(load_checkpoint(path)["cells"]) == 2

    def test_corrupt_version_is_rejected(self, tmp_path):
        from repro.errors import CheckpointError

        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"version": 99, "cells": {}}))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(str(path))

    def test_multiple_sweeps_on_one_runner_get_distinct_keys(self, tmp_path):
        # Two variants of one technique: same controller name, other knobs.
        path = str(tmp_path / "ck.json")
        variants = (
            tuning_factory,
            functools.partial(
                ResonanceTuningController, enable_second_level=False
            ),
        )
        runner = BenchmarkRunner(
            SMALL, resilience=ResilienceConfig(checkpoint_path=path)
        )
        for factory in variants:
            runner.sweep(factory, benchmarks=("swim",))
        keys = set(load_checkpoint(path)["cells"])
        assert len(keys) == 2
        assert keys == {
            cell_key(spec_of(factory), "swim", "resonance-tuning", None)
            for factory in variants
        }


# ----------------------------------------------------------------------
# Content-keyed checkpoint cells
# ----------------------------------------------------------------------

def _table4_row(config, resilience):
    """One Table 4 row, swept as ``experiment table4`` sweeps it."""
    from repro.experiments import table4

    with Session(resilience) as session:
        result = table4.run(
            configs=(config,), benchmarks=("swim", "gzip"),
            sweep_config=SMALL, session=session,
        )
    return result.summaries[0][1]


#: The spec whose digest the subprocess test recomputes: a controller
#: built with a dataclass keyword, on a non-default supply.
_DIGEST_SNIPPET = """
import functools
from dataclasses import replace
from repro.config import TABLE1_SUPPLY, TABLE1_TUNING
from repro.core import ResonanceTuningController
from repro.sim import SweepConfig
from repro.sim.checkpoint import spec_digest

config = SweepConfig(
    n_cycles=3000, warmup_cycles=200,
    supply=replace(TABLE1_SUPPLY, capacitance_farads=750e-9),
)
factory = functools.partial(
    ResonanceTuningController,
    tuning_config=replace(TABLE1_TUNING, response_delay_cycles=5),
)
digest = spec_digest(
    config, None, factory(config.supply, config.processor)
)
"""


class TestContentKeys:
    def test_resumed_table4_row_is_not_served_another_row(self, tmp_path):
        from repro.experiments.table4 import VTConfig

        path = str(tmp_path / "ck.json")
        _table4_row(VTConfig(30, 0, 0), ResilienceConfig(checkpoint_path=path))
        resumed = _table4_row(
            VTConfig(20, 10, 5),
            ResilienceConfig(checkpoint_path=path, resume=True),
        )
        clean = _table4_row(VTConfig(20, 10, 5), None)
        assert summary_fingerprint(resumed) == summary_fingerprint(clean)
        assert len(load_checkpoint(path)["cells"]) == 4

    def test_half_capacitance_resume_is_not_served_table1_cells(
        self, tmp_path
    ):
        path = str(tmp_path / "ck.json")
        half = dataclasses.replace(
            SMALL,
            supply=dataclasses.replace(
                TABLE1_SUPPLY,
                capacitance_farads=TABLE1_SUPPLY.capacitance_farads / 2,
            ),
        )
        table1 = BenchmarkRunner(SMALL).sweep(
            tuning_factory, benchmarks=("swim",),
            resilience=ResilienceConfig(checkpoint_path=path),
        )
        resumed = BenchmarkRunner(half).sweep(
            tuning_factory, benchmarks=("swim",),
            resilience=ResilienceConfig(checkpoint_path=path, resume=True),
        )
        clean = BenchmarkRunner(half).sweep(
            tuning_factory, benchmarks=("swim",)
        )
        assert summary_fingerprint(clean) != summary_fingerprint(table1)
        assert summary_fingerprint(resumed) == summary_fingerprint(clean)
        assert resumed.timings["cells_cached"] == 0

    def test_spec_digest_is_the_same_in_a_fresh_interpreter(self):
        namespace = {}
        exec(_DIGEST_SNIPPET, namespace)
        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), os.pardir, "src")
        )
        for hash_seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            child = subprocess.run(
                [sys.executable, "-c", _DIGEST_SNIPPET + "print(digest)\n"],
                env=env, capture_output=True, text=True, timeout=120,
                check=True,
            )
            assert child.stdout.strip() == namespace["digest"]

    def test_session_memo_serves_and_only_resume_reads_file(self, tmp_path):
        # Within one session a finished cell is served with or without
        # resume; across sessions only a resume reads the file.
        path = str(tmp_path / "ck.json")
        runner = BenchmarkRunner(SMALL)
        for resume, cached in ((False, 0.0), (False, 1.0), (True, 1.0)):
            summary = runner.sweep(
                tuning_factory, benchmarks=("swim",),
                resilience=ResilienceConfig(
                    checkpoint_path=path, resume=resume
                ),
            )
            assert summary.timings["cells_cached"] == cached
        for resume, cached in ((False, 0.0), (True, 1.0)):
            summary = BenchmarkRunner(SMALL).sweep(
                tuning_factory, benchmarks=("swim",),
                resilience=ResilienceConfig(
                    checkpoint_path=path, resume=resume
                ),
            )
            assert summary.timings["cells_cached"] == cached

    def test_equal_controllers_share_cells(self):
        # Two spellings of the default tuning controller are one spec, so
        # the second sweep is served every cell of the first.
        from repro.experiments import ablations

        runner = BenchmarkRunner(SMALL)
        first = runner.sweep(
            functools.partial(
                ablations._quantized_controller, quantum_amps=1.0
            ),
            benchmarks=("swim", "gzip"),
        )
        second = runner.sweep(
            functools.partial(
                ResonanceTuningController,
                tuning_config=dataclasses.replace(
                    TABLE1_TUNING, response_delay_cycles=0
                ),
            ),
            benchmarks=("swim", "gzip"),
        )
        assert first.timings["cells_cached"] == 0
        assert second.timings["cells_cached"] == 2
        assert summary_fingerprint(second) == summary_fingerprint(first)

    @staticmethod
    def assert_refused_before_any_cell(monkeypatch, checkpoint):
        """A local-class controller and a lambda transform are each
        refused, naming which, at workers 1 and 2, before any cell runs."""
        runs = []
        run = Simulation.run

        def counted(self, *args, **kwargs):
            runs.append(self)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(Simulation, "run", counted)

        class LocalController(ResonanceTuningController):
            """Defined in a function, so it does not pickle."""

        keep_supply = lambda supply, benchmark: supply  # noqa: E731
        for workers in (1, 2):
            for factory, transform, culprit in (
                (LocalController, None, "controller"),
                (tuning_factory, keep_supply, "supply transform"),
            ):
                runner = BenchmarkRunner(SMALL, supply_transform=transform)
                with pytest.raises(
                    ConfigurationError, match=f"{culprit} .*does not pickle"
                ):
                    runner.sweep(
                        factory, benchmarks=("swim", "gzip"),
                        resilience=ResilienceConfig(
                            workers=workers, checkpoint_path=checkpoint
                        ),
                    )
        assert runs == []

    def test_unpicklable_checkpointed_sweep_is_refused_before_any_cell(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "ck.json"
        self.assert_refused_before_any_cell(monkeypatch, str(path))
        assert not path.exists()

    def test_unpicklable_spec_is_refused_before_any_cell(self, monkeypatch):
        # Without a checkpoint no key is written, but every attempt runs
        # a copy restored from the spec, so it is refused all the same.
        self.assert_refused_before_any_cell(monkeypatch, None)

    def test_factory_runs_once_per_sweep(self):
        # The probe is the only controller the factory builds: every
        # attempt, the retry included, runs a copy restored from the spec.
        for workers in (1, 2):
            calls = []

            def counting_factory(supply, processor):
                calls.append(workers)
                return ResonanceTuningController(supply, processor)

            flaky = FlakyOnce()
            with BenchmarkRunner(SMALL, supply_transform=flaky) as runner:
                summary = runner.sweep(
                    counting_factory, benchmarks=("swim", "gzip"),
                    resilience=ResilienceConfig(
                        max_retries=1, workers=workers
                    ),
                )
            assert summary.failures == ()
            assert len(summary.per_benchmark) == 2
            assert len(calls) == 1


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
