"""Tests for the parallel sweep backend (ResilienceConfig.workers).

The contract under test: a sweep dispatched to worker processes produces
aggregates, checkpoint files and failure reports bit-identical to the
sequential path, resumes interchangeably with it, fans out any factory
whose controller pickles, and enforces per-cell timeouts without leaving
a live background thread behind.
"""

import dataclasses
import functools
import json
import threading
import time

import pytest

from repro.core import ResonanceTuningController
from repro.errors import ConfigurationError
from repro.faults.chaos import HangOnce
from repro.sim import (
    BenchmarkRunner,
    ResilienceConfig,
    SweepConfig,
    load_checkpoint,
)
from repro.sim.checkpoint import cell_key, spec_digest


def tuning_factory(supply, processor):
    """Module-level (hence picklable) controller factory."""
    return ResonanceTuningController(supply, processor)


def summary_fingerprint(summary):
    """Byte-exact serialisation of a TechniqueSummary for equality checks.

    ``timings`` is attached outside the dataclass fields, so fingerprints
    are timing-independent by construction.
    """
    return json.dumps(dataclasses.asdict(summary), sort_keys=True)


SMALL = SweepConfig(n_cycles=2500, warmup_cycles=200)
BENCHMARKS = ("swim", "gzip", "parser")


class HungSupply:
    """Supply whose step blocks far beyond any test timeout."""

    def __init__(self, supply):
        self._supply = supply

    def step(self, cpu_current):
        time.sleep(60)
        return self._supply.step(cpu_current)

    def __getattr__(self, name):
        return getattr(self._supply, name)


class HangBenchmark:
    """Picklable supply transform hanging one chosen benchmark."""

    def __init__(self, target):
        self.target = target

    def __call__(self, supply, benchmark):
        return HungSupply(supply) if benchmark == self.target else supply


# ----------------------------------------------------------------------
# Sequential / parallel equivalence
# ----------------------------------------------------------------------

class TestParallelEquivalence:
    def sequential(self, **kwargs):
        runner = BenchmarkRunner(SMALL)
        return runner.sweep(tuning_factory, benchmarks=BENCHMARKS, **kwargs)

    def test_aggregates_bit_identical(self):
        expected = self.sequential()
        with BenchmarkRunner(SMALL) as runner:
            parallel = runner.sweep(
                tuning_factory,
                benchmarks=BENCHMARKS,
                resilience=ResilienceConfig(workers=3),
            )
        assert summary_fingerprint(parallel) == summary_fingerprint(expected)
        assert parallel == expected
        assert parallel.timings["workers"] == 3.0

    def test_checkpoint_files_byte_identical(self, tmp_path):
        seq_path = str(tmp_path / "seq.json")
        par_path = str(tmp_path / "par.json")
        self.sequential(
            resilience=ResilienceConfig(checkpoint_path=seq_path)
        )
        with BenchmarkRunner(SMALL) as runner:
            runner.sweep(
                tuning_factory,
                benchmarks=BENCHMARKS,
                resilience=ResilienceConfig(checkpoint_path=par_path, workers=3),
            )
        seq_bytes = (tmp_path / "seq.json").read_bytes()
        par_bytes = (tmp_path / "par.json").read_bytes()
        assert seq_bytes == par_bytes

    def test_seed_grid_matches_and_keys_cells_by_seed(self, tmp_path):
        path = str(tmp_path / "ck.json")
        seeds = (None, 7, 8)
        expected = self.sequential(seeds=seeds)
        with BenchmarkRunner(SMALL) as runner:
            parallel = runner.sweep(
                tuning_factory,
                benchmarks=BENCHMARKS,
                seeds=seeds,
                resilience=ResilienceConfig(checkpoint_path=path, workers=4),
            )
        assert summary_fingerprint(parallel) == summary_fingerprint(expected)
        assert len(parallel.per_benchmark) == len(BENCHMARKS) * len(seeds)
        spec = spec_digest(
            SMALL, None, tuning_factory(SMALL.supply, SMALL.processor)
        )
        assert set(load_checkpoint(path)["cells"]) == {
            cell_key(spec, name, "resonance-tuning", seed)
            for name in BENCHMARKS
            for seed in seeds
        }

    def test_sequential_resume_of_parallel_checkpoint(self, tmp_path):
        """Checkpoints are backend-agnostic: write parallel, resume sequential."""
        path = str(tmp_path / "ck.json")
        with BenchmarkRunner(SMALL) as runner:
            runner.sweep(
                tuning_factory,
                benchmarks=BENCHMARKS[:2],
                resilience=ResilienceConfig(checkpoint_path=path, workers=2),
            )
        resumed = BenchmarkRunner(SMALL).sweep(
            tuning_factory,
            benchmarks=BENCHMARKS,
            resilience=ResilienceConfig(checkpoint_path=path, resume=True),
        )
        assert summary_fingerprint(resumed) == summary_fingerprint(
            self.sequential()
        )

    def test_parallel_resume_after_simulated_kill(self, tmp_path):
        path = str(tmp_path / "ck.json")

        class Kill(BaseException):
            """Out of Exception's reach: must abort, not retry."""

        remaining = {"cells": 2}

        def kill_after_two(name, metrics):
            remaining["cells"] -= 1
            if remaining["cells"] == 0:
                raise Kill()

        with pytest.raises(Kill):
            self.sequential(
                progress=kill_after_two,
                resilience=ResilienceConfig(checkpoint_path=path),
            )
        assert len(load_checkpoint(path)["cells"]) == 2

        with BenchmarkRunner(SMALL) as runner:
            resumed = runner.sweep(
                tuning_factory,
                benchmarks=BENCHMARKS,
                resilience=ResilienceConfig(
                    checkpoint_path=path, resume=True, workers=3
                ),
            )
        assert summary_fingerprint(resumed) == summary_fingerprint(
            self.sequential()
        )

    def test_kill_mid_parallel_sweep_checkpoints_completed_cells(self, tmp_path):
        path = str(tmp_path / "ck.json")

        class Kill(BaseException):
            pass

        def kill_on_first(name, metrics):
            raise Kill()

        with BenchmarkRunner(SMALL) as runner:
            with pytest.raises(Kill):
                runner.sweep(
                    tuning_factory,
                    benchmarks=BENCHMARKS,
                    progress=kill_on_first,
                    resilience=ResilienceConfig(checkpoint_path=path, workers=3),
                )
        # whatever completed before the kill is durable and resumable
        assert len(load_checkpoint(path)["cells"]) >= 1
        resumed = BenchmarkRunner(SMALL).sweep(
            tuning_factory,
            benchmarks=BENCHMARKS,
            resilience=ResilienceConfig(checkpoint_path=path, resume=True),
        )
        assert summary_fingerprint(resumed) == summary_fingerprint(
            self.sequential()
        )


# ----------------------------------------------------------------------
# Degraded modes
# ----------------------------------------------------------------------

class TestFallbacks:
    def test_lambda_factory_fans_out_with_the_partials_keys(self, tmp_path):
        # Only the controller has to pickle: a lambda factory fans out,
        # and its cells are keyed as the partial's that builds the same
        # controller.
        summaries, keys = {}, {}
        for name, factory in (
            ("lambda", lambda s, p: ResonanceTuningController(s, p)),
            ("partial", functools.partial(ResonanceTuningController)),
        ):
            path = str(tmp_path / f"{name}.json")
            with BenchmarkRunner(SMALL) as runner:
                summaries[name] = runner.sweep(
                    factory,
                    benchmarks=BENCHMARKS[:2],
                    resilience=ResilienceConfig(
                        workers=2, checkpoint_path=path
                    ),
                )
            keys[name] = set(load_checkpoint(path)["cells"])
        assert summaries["lambda"].timings["workers"] == 2.0
        assert summary_fingerprint(summaries["lambda"]) == summary_fingerprint(
            summaries["partial"]
        )
        assert keys["lambda"] == keys["partial"]

    def test_single_pending_cell_runs_in_process(self):
        with BenchmarkRunner(SMALL) as runner:
            summary = runner.sweep(
                tuning_factory,
                benchmarks=("gzip",),
                resilience=ResilienceConfig(workers=4),
            )
        assert summary.timings["workers"] == 1.0
        # the session's pool was never spun up
        assert runner.session.pool._executor is None

    def test_workers_validation(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(workers=-1)

    def test_zero_workers_runs_sequentially_on_auto(self):
        # 0 and 1 both mean "no worker processes": the sweep runs
        # in-process.
        with BenchmarkRunner(SMALL) as runner:
            summary = runner.sweep(
                tuning_factory,
                benchmarks=("gzip",),
                resilience=ResilienceConfig(workers=0),
            )
        assert summary.timings["workers"] == 1.0
        assert runner.session.pool._executor is None


# ----------------------------------------------------------------------
# Timeouts
# ----------------------------------------------------------------------

class TestParallelTimeouts:
    def test_parallel_timeout_becomes_failure_report(self):
        with BenchmarkRunner(
            SMALL, supply_transform=HangBenchmark("swim")
        ) as runner:
            summary = runner.sweep(
                tuning_factory,
                benchmarks=("swim", "gzip"),
                resilience=ResilienceConfig(timeout_s=1.5, workers=2),
            )
        assert len(summary.failures) == 1
        failure = summary.failures[0]
        assert failure.benchmark == "swim"
        assert failure.error_type == "FaultError"
        assert "timeout" in failure.message
        assert [row.benchmark for row in summary.per_benchmark] == ["gzip"]

    def test_timed_out_cell_leaves_no_background_thread(self):
        """The sequential timeout preempts in place: thread count returns
        to baseline instead of leaking an abandoned daemon thread."""
        baseline = threading.active_count()
        runner = BenchmarkRunner(SMALL, supply_transform=HangBenchmark("swim"))
        summary = runner.sweep(
            tuning_factory,
            benchmarks=("swim", "gzip"),
            resilience=ResilienceConfig(timeout_s=0.5),
        )
        assert len(summary.failures) == 1
        assert threading.active_count() == baseline

    def test_sequential_and_parallel_failures_identical(self):
        def run(workers):
            with BenchmarkRunner(
                SMALL, supply_transform=HangBenchmark("swim")
            ) as runner:
                return runner.sweep(
                    tuning_factory,
                    benchmarks=("swim", "gzip"),
                    resilience=ResilienceConfig(timeout_s=1.0, workers=workers),
                )

        assert summary_fingerprint(run(1)) == summary_fingerprint(run(2))

    def test_base_that_times_out_once_is_retried_reseeded_on_both(
        self, tmp_path
    ):
        # The sequential warm-up's timed-out base run is the cell's first
        # attempt, as it is on the pool, which has no warm-up: both
        # backends finish swim on its re-seeded retry.
        def run(workers):
            hang = HangOnce(str(tmp_path / f"hang-{workers}"), "swim")
            with BenchmarkRunner(SMALL, supply_transform=hang) as runner:
                return runner.sweep(
                    tuning_factory,
                    benchmarks=("swim", "gzip"),
                    resilience=ResilienceConfig(
                        timeout_s=1.0, max_retries=1, workers=workers
                    ),
                )

        sequential, parallel = run(1), run(2)
        assert sequential.failures == ()
        assert summary_fingerprint(sequential) == summary_fingerprint(parallel)


# ----------------------------------------------------------------------
# Timings diagnostics
# ----------------------------------------------------------------------

class TestTimings:
    def test_timings_breakdown_present(self):
        summary = BenchmarkRunner(SMALL).sweep(
            tuning_factory, benchmarks=("gzip",)
        )
        timings = summary.timings
        for key in (
            "setup", "execute", "checkpoint_io", "aggregate", "total",
            "workers", "cells_total", "cells_cached",
        ):
            assert key in timings
        assert timings["total"] >= timings["execute"] >= 0.0
        assert timings["cells_total"] == 1.0
        assert timings["cells_cached"] == 0.0

    def test_timings_do_not_leak_into_equality_or_serialisation(self):
        first = BenchmarkRunner(SMALL).sweep(tuning_factory, benchmarks=("gzip",))
        second = BenchmarkRunner(SMALL).sweep(tuning_factory, benchmarks=("gzip",))
        assert first.timings["total"] != second.timings["total"] or True
        assert first == second
        assert "timings" not in dataclasses.asdict(first)


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------

class TestWorkersFlag:
    def test_workers_flag_round_trip(self):
        from repro.cli import build_parser
        from repro.experiments.registry import resilience_from_args

        parser = build_parser()
        args = parser.parse_args(["experiment", "table3", "--workers", "2"])
        resilience = resilience_from_args(args)
        assert resilience == ResilienceConfig(workers=2)

    def test_default_workers_mean_no_resilience(self):
        from repro.cli import build_parser
        from repro.experiments.registry import resilience_from_args

        parser = build_parser()
        args = parser.parse_args(["experiment", "table3"])
        assert resilience_from_args(args) is None
