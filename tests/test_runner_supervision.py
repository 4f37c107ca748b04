"""Tests for sweep supervision: heartbeats, drain, lifecycle.

Covers the crash-safety layer around the parallel backend -- hung-worker
detection and requeue, bounded worker-restart budgets, SIGTERM/SIGINT
drain with a resumable checkpoint, the per-benchmark circuit breaker, checkpoint durability (fsync + checksum)
and the :class:`~repro.errors.CheckpointError` contract, timeouts off
the main thread, plus the runner's pool lifetime and close/re-entry
semantics.  End-to-end chaos (real SIGKILLs, corrupted files, the
harness itself) lives in ``tests/test_chaos.py`` and ``tools/chaos.py``.
"""

import dataclasses
import json
import os
import pathlib
import signal
import threading
import time

import pytest

from repro.core import ResonanceTuningController
from repro.errors import (
    CheckpointError,
    FaultError,
    HarnessError,
    SweepInterrupted,
)
from repro.faults.chaos import HangAlways, HangOnce, truncate_file
from repro.sim import (
    BenchmarkRunner,
    ResilienceConfig,
    SweepConfig,
    load_checkpoint,
)
from repro import durable
from repro.sim.runner import _call_with_alarm


def tuning_factory(supply, processor):
    return ResonanceTuningController(supply, processor)


def fingerprint(summary):
    return json.dumps(dataclasses.asdict(summary), sort_keys=True)


SMALL = SweepConfig(n_cycles=2000, warmup_cycles=200)
BENCHMARKS = ("swim", "gzip")


class BrokenSupply:
    """Picklable supply stand-in whose step always explodes."""

    def __init__(self, supply):
        self._supply = supply

    def step(self, cpu_current):
        raise RuntimeError("melted")

    def __getattr__(self, name):
        return getattr(self._supply, name)


class BreakBenchmark:
    """Picklable transform breaking every cell of one benchmark."""

    def __init__(self, target):
        self.target = target

    def __call__(self, supply, benchmark):
        return BrokenSupply(supply) if benchmark == self.target else supply


# ----------------------------------------------------------------------
# Hung-worker supervision
# ----------------------------------------------------------------------

class TestHeartbeatSupervision:
    def test_hung_worker_is_killed_requeued_and_converges(self, tmp_path):
        golden = BenchmarkRunner(SMALL).sweep(
            tuning_factory, benchmarks=BENCHMARKS
        )
        transform = HangOnce(
            str(tmp_path / "hang.marker"), "swim",
            after_cycles=300, sleep_s=60.0,
        )
        with BenchmarkRunner(SMALL, supply_transform=transform) as runner:
            summary = runner.sweep(
                tuning_factory,
                benchmarks=BENCHMARKS,
                resilience=ResilienceConfig(
                    workers=2, heartbeat_stale_s=0.5
                ),
            )
        assert fingerprint(summary) == fingerprint(golden)
        assert not summary.failures
        incidents = summary.incidents
        assert incidents and all(
            incident.error_type == "WorkerLostError" for incident in incidents
        )
        assert any(incident.benchmark == "swim" for incident in incidents)

    def test_always_hung_cell_is_parked_after_restart_budget(self):
        transform = HangAlways("swim", after_cycles=300, sleep_s=60.0)
        with BenchmarkRunner(SMALL, supply_transform=transform) as runner:
            summary = runner.sweep(
                tuning_factory,
                benchmarks=BENCHMARKS,
                resilience=ResilienceConfig(
                    workers=2, heartbeat_stale_s=0.5
                ),
            )
        assert len(summary.failures) == 1
        failure = summary.failures[0]
        assert failure.benchmark == "swim"
        assert failure.error_type == "WorkerLostError"
        assert failure.attempts == 3  # initial run + two requeues
        assert [row.benchmark for row in summary.per_benchmark] == ["gzip"]
        # every loss left an incident, not just the final abandonment
        assert len(summary.incidents) >= 3


# ----------------------------------------------------------------------
# Graceful drain on SIGTERM / SIGINT
# ----------------------------------------------------------------------

class TestGracefulDrain:
    BENCH3 = ("swim", "gzip", "parser")

    def drained_sweep(self, tmp_path, workers, seeds=(None,)):
        ck = tmp_path / "ck.json"
        signalled = []

        def sigterm_after_first(name, metrics):
            # One signal only: the pool backend can report two cells
            # that finished in the same wait, and a second signal while
            # draining escalates to KeyboardInterrupt by design.
            if not signalled:
                signalled.append(name)
                os.kill(os.getpid(), signal.SIGTERM)

        runner = BenchmarkRunner(SMALL)
        with pytest.raises(SweepInterrupted) as excinfo:
            runner.sweep(
                tuning_factory,
                benchmarks=self.BENCH3,
                seeds=seeds,
                progress=sigterm_after_first,
                resilience=ResilienceConfig(
                    workers=workers, checkpoint_path=str(ck)
                ),
            )
        runner.close()
        return ck, excinfo.value

    def verify_drain(self, ck, stop, seeds=(None,)):
        assert stop.exit_code == 75
        assert stop.signum == signal.SIGTERM
        assert stop.completed >= 1
        assert stop.pending >= 1
        # the flushed checkpoint is checksum-valid, not salvage material
        assert len(load_checkpoint(str(ck))["cells"]) == stop.completed
        note = json.loads((ck.parent / f"{ck.name}.shutdown.json").read_text())
        assert note["signal"] == "SIGTERM"
        assert note["resumable"] is True
        assert len(note["pending_cells"]) == stop.pending
        resumed = BenchmarkRunner(SMALL).sweep(
            tuning_factory,
            benchmarks=self.BENCH3,
            seeds=seeds,
            resilience=ResilienceConfig(checkpoint_path=str(ck), resume=True),
        )
        golden = BenchmarkRunner(SMALL).sweep(
            tuning_factory, benchmarks=self.BENCH3, seeds=seeds
        )
        assert fingerprint(resumed) == fingerprint(golden)

    def test_sequential_sigterm_drains_and_resumes(self, tmp_path):
        ck, stop = self.drained_sweep(tmp_path, workers=1)
        self.verify_drain(ck, stop)

    def test_parallel_sigterm_drains_within_deadline(self, tmp_path):
        seeds = (None, 7)  # 6 cells: some are always still queued
        started = time.monotonic()
        ck, stop = self.drained_sweep(tmp_path, workers=2, seeds=seeds)
        assert time.monotonic() - started < 30.0
        self.verify_drain(ck, stop, seeds=seeds)

    def test_drain_without_checkpoint_still_interrupts(self):
        def sigterm_after_first(name, metrics):
            os.kill(os.getpid(), signal.SIGTERM)

        with pytest.raises(SweepInterrupted):
            BenchmarkRunner(SMALL).sweep(
                tuning_factory,
                benchmarks=self.BENCH3,
                progress=sigterm_after_first,
            )


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------

class TestCircuitBreaker:
    SEEDS = (None, 7, 8)

    def run(self, workers=1):
        with BenchmarkRunner(
            SMALL, supply_transform=BreakBenchmark("swim")
        ) as runner:
            return runner.sweep(
                tuning_factory,
                benchmarks=BENCHMARKS,
                seeds=self.SEEDS,
                resilience=ResilienceConfig(workers=workers),
            )

    def test_probe_failure_parks_remaining_seeds(self):
        summary = self.run()
        swim = [f for f in summary.failures if f.benchmark == "swim"]
        assert len(swim) == len(self.SEEDS)
        parked = [f for f in swim if f.skipped]
        assert len(parked) == len(self.SEEDS) - 1
        assert all(f.error_type == "CircuitOpen" for f in parked)
        assert all(f.attempts == 0 for f in parked)
        # the healthy benchmark ran every seed
        assert len(summary.per_benchmark) == len(self.SEEDS)

    def test_parallel_parks_identical_cells(self):
        assert fingerprint(self.run(workers=2)) == fingerprint(self.run())


# ----------------------------------------------------------------------
# Timeout alarm hygiene (ambient ITIMER_REAL re-arming)
# ----------------------------------------------------------------------

class TestAlarmRearm:
    @pytest.fixture()
    def ambient_alarm(self):
        fired = {"count": 0}

        def on_alarm(signum, frame):
            fired["count"] += 1

        previous = signal.signal(signal.SIGALRM, on_alarm)
        try:
            yield fired
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def test_ambient_timer_is_rearmed_with_remaining_time(self, ambient_alarm):
        signal.setitimer(signal.ITIMER_REAL, 60.0)
        assert _call_with_alarm(lambda: "done", timeout_s=5.0) == "done"
        remaining, _ = signal.getitimer(signal.ITIMER_REAL)
        assert 0.0 < remaining <= 60.0
        assert ambient_alarm["count"] == 0

    def test_ambient_timer_expiring_during_cell_fires_promptly(
        self, ambient_alarm
    ):
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        _call_with_alarm(lambda: time.sleep(0.2), timeout_s=5.0)
        deadline = time.monotonic() + 2.0
        while ambient_alarm["count"] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ambient_alarm["count"] == 1

    def test_cell_timeout_still_preempts(self, ambient_alarm):
        signal.setitimer(signal.ITIMER_REAL, 60.0)
        with pytest.raises(FaultError, match="timeout"):
            _call_with_alarm(lambda: time.sleep(5.0), timeout_s=0.1)
        remaining, _ = signal.getitimer(signal.ITIMER_REAL)
        assert 0.0 < remaining <= 60.0


# ----------------------------------------------------------------------
# Timeouts need the main thread
# ----------------------------------------------------------------------

def sweep_on_a_thread(resilience):
    """Run a sweep on a helper thread; return its outcome and the
    benchmarks its progress callback reported."""
    outcome, reported = {}, []

    def target():
        try:
            outcome["summary"] = BenchmarkRunner(SMALL).sweep(
                tuning_factory,
                benchmarks=BENCHMARKS,
                progress=lambda name, metrics: reported.append(name),
                resilience=resilience,
            )
        except Exception as error:
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=120.0)
    assert not thread.is_alive(), "the sweep thread never finished"
    return outcome, reported


class TestTimeoutOffTheMainThread:
    def test_sequential_timeout_sweep_refuses_before_any_cell(self):
        outcome, reported = sweep_on_a_thread(ResilienceConfig(timeout_s=30.0))
        error = outcome.get("error")
        assert isinstance(error, HarnessError)
        assert "timeout_s" in str(error)
        assert "main thread" in str(error)
        assert reported == []

    def test_sweep_without_timeout_still_completes(self):
        outcome, reported = sweep_on_a_thread(ResilienceConfig())
        assert "error" not in outcome
        assert len(outcome["summary"].per_benchmark) == len(BENCHMARKS)
        assert reported == list(BENCHMARKS)


# ----------------------------------------------------------------------
# Runner lifecycle: the pool outlives a sweep, close is idempotent, a
# closed runner refuses work
# ----------------------------------------------------------------------

class PidMarker:
    """Picklable transform leaving a file named after each process that
    builds a supply, so a cell's runs mark the worker that ran them.

    ``tag`` only tells sweeps apart: it changes the spec, not the run.
    """

    def __init__(self, directory, tag):
        self.directory = str(directory)
        self.tag = tag

    def __call__(self, supply, benchmark):
        pathlib.Path(self.directory, str(os.getpid())).touch()
        # Hold this worker so the other one takes the next queued cell:
        # both workers then serve the first sweep, not just the faster one.
        time.sleep(0.2)
        return supply


def marked_pids(directory):
    """Pids that ran a cell since the last call, minus this process;
    clears the marks."""
    pids = set()
    for mark in pathlib.Path(directory).iterdir():
        pids.add(int(mark.name))
        mark.unlink()
    pids.discard(os.getpid())
    return pids


class TestRunnerLifecycle:
    def test_pool_serves_later_sweeps_and_dies_with_close(self, tmp_path):
        runner = BenchmarkRunner(SMALL)
        served = []
        # Two specs: the session would serve a repeated one from its memo.
        for tag in ("first", "second"):
            view = runner.session.runner(SMALL, PidMarker(tmp_path, tag))
            view.sweep(
                tuning_factory,
                benchmarks=BENCHMARKS,
                seeds=(None, 7),
                resilience=ResilienceConfig(workers=2),
            )
            served.append(marked_pids(tmp_path))
        first, second = served
        assert 1 <= len(first) <= 2
        assert second and second <= first
        runner.close()
        for pid in first:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_close_is_idempotent(self):
        runner = BenchmarkRunner(SMALL)
        runner.sweep(tuning_factory, benchmarks=("gzip",))
        runner.close()
        runner.close()  # must not raise

    def test_sweep_on_closed_runner_raises_not_hangs(self):
        runner = BenchmarkRunner(SMALL)
        runner.close()
        with pytest.raises(HarnessError, match="closed"):
            runner.sweep(tuning_factory, benchmarks=("gzip",))

    def test_context_reentry_after_close_raises(self):
        runner = BenchmarkRunner(SMALL)
        with runner:
            runner.sweep(
                tuning_factory,
                benchmarks=BENCHMARKS,
                resilience=ResilienceConfig(workers=2),
            )
        with pytest.raises(HarnessError, match="closed"):
            with runner:
                pass  # pragma: no cover

    def test_close_after_heartbeat_sweep_releases_channel(self):
        runner = BenchmarkRunner(SMALL)
        runner.sweep(
            tuning_factory,
            benchmarks=BENCHMARKS,
            resilience=ResilienceConfig(workers=2, heartbeat_stale_s=30.0),
        )
        runner.close()
        pool = runner.session.pool
        assert pool._manager is None
        assert pool._heartbeats is None
        assert pool._executor is None


# ----------------------------------------------------------------------
# Checkpoint durability and the CheckpointError contract
# ----------------------------------------------------------------------

class TestCheckpointDurability:
    def test_fsync_covers_file_and_directory(self, tmp_path, monkeypatch):
        synced = []
        original = durable.fsync
        monkeypatch.setattr(
            durable, "fsync",
            lambda fd: (synced.append(fd), original(fd))[1],
        )
        BenchmarkRunner(SMALL).sweep(
            tuning_factory,
            benchmarks=("gzip",),
            resilience=ResilienceConfig(
                checkpoint_path=str(tmp_path / "ck.json")
            ),
        )
        # one flush: temp-file fsync plus containing-directory fsync
        assert len(synced) >= 2

    def test_failed_write_leaves_no_temp_files(self, tmp_path, monkeypatch):
        def explode(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(durable, "fsync", explode)
        with pytest.warns(RuntimeWarning, match="checkpoint write"):
            BenchmarkRunner(SMALL).sweep(
                tuning_factory,
                benchmarks=("gzip",),
                resilience=ResilienceConfig(
                    checkpoint_path=str(tmp_path / "ck.json")
                ),
            )
        assert not list(tmp_path.iterdir())


class TestCheckpointErrors:
    def write_valid(self, tmp_path):
        ck = tmp_path / "ck.json"
        BenchmarkRunner(SMALL).sweep(
            tuning_factory,
            benchmarks=BENCHMARKS,
            resilience=ResilienceConfig(checkpoint_path=str(ck)),
        )
        return ck

    def test_missing_file_names_path_and_hints_resume(self, tmp_path):
        path = str(tmp_path / "nope.json")
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.path == path
        assert "resume" in str(excinfo.value)

    def test_truncated_file_raises_without_salvage(self, tmp_path):
        ck = self.write_valid(tmp_path)
        truncate_file(str(ck), 0.5)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(ck))
        assert not list(tmp_path.glob("*.corrupt-*"))  # no salvage side effects

    def test_truncated_file_salvages_valid_prefix(self, tmp_path):
        ck = self.write_valid(tmp_path)
        complete = set(load_checkpoint(str(ck))["cells"])
        truncate_file(str(ck), 0.6)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            data = load_checkpoint(str(ck), salvage=True)
        assert data["salvaged"] is True
        assert set(data["cells"]) <= complete
        assert list(tmp_path.glob("ck.json.corrupt-*"))

    def test_wrong_payload_type_is_rejected(self, tmp_path):
        ck = tmp_path / "ck.json"
        ck.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(ck))

    def test_tampered_cell_fails_digest(self, tmp_path):
        ck = self.write_valid(tmp_path)
        payload = json.loads(ck.read_text())
        key = next(iter(payload["cells"]))
        payload["cells"][key]["metrics"]["slowdown"] = 0.123456
        # recompute the outer checksum so only the per-record digest can
        # catch the tampering
        payload["_meta"]["checksum"] = durable.content_digest(
            payload["cells"]
        )
        ck.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(str(ck))

    def test_tampered_checksum_is_caught(self, tmp_path):
        ck = self.write_valid(tmp_path)
        payload = json.loads(ck.read_text())
        payload["_meta"]["checksum"] = "0" * 64
        ck.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(str(ck))


# ----------------------------------------------------------------------
# CLI plumbing for the supervision flags
# ----------------------------------------------------------------------

class TestSupervisionFlags:
    def parse(self, *extra):
        from repro.cli import build_parser
        from repro.experiments.registry import resilience_from_args

        args = build_parser().parse_args(["experiment", "table3", *extra])
        return resilience_from_args(args)

    def test_supervision_flags_round_trip(self):
        resilience = self.parse(
            "--workers", "2",
            "--heartbeat-stale-s", "5",
            "--drain-deadline-s", "3",
        )
        assert resilience == ResilienceConfig(
            workers=2,
            heartbeat_stale_s=5.0,
            drain_deadline_s=3.0,
        )

    def test_defaults_still_mean_no_resilience(self):
        assert self.parse() is None

    def test_heartbeat_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ResilienceConfig(heartbeat_stale_s=0.0)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(drain_deadline_s=0.0)
