"""Tests for the one durable-write path and the formats written through it.

:mod:`repro.durable` writes every checkpoint, sidecar, trace-store entry
and job record.  Covered here: the write itself (temp file, fsyncs,
cleanup, filesystems that cannot fsync a directory), quarantine, which
writes the two ``runner_checkpoint_*`` counters count, injected write
faults reaching the stores other than the checkpoint, and the on-disk
formats: committed fixtures written before the checkpoint format moved to
:mod:`repro.sim.checkpoint` must load and re-write byte for byte, and a
version-1 checkpoint must still resume.
"""

import dataclasses
import errno
import json
import os
import pathlib
import shutil
import stat
import warnings

import pytest

from repro import durable
from repro.core import ResonanceTuningController
from repro.faults.chaos import inject_fsync_faults
from repro.obs import metrics as obs_metrics
from repro.obs.log import reset_warn_dedup
from repro.serve import JobStore
from repro.sim import (
    BenchmarkRunner,
    ResilienceConfig,
    SweepConfig,
    load_checkpoint,
)
from repro.sim.checkpoint import SweepCheckpoint
from repro.trace import TraceCapture, TraceKey, TraceStore

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "formats"
SMALL = SweepConfig(n_cycles=1200, warmup_cycles=150)
BENCHMARKS = ("swim", "gzip")


def tuning_factory(supply, processor):
    return ResonanceTuningController(supply, processor)


def fingerprint(summary):
    return json.dumps(dataclasses.asdict(summary), sort_keys=True)


def fixture_key() -> TraceKey:
    """The key the committed trace-store fixture was recorded under."""
    return TraceKey(
        benchmark="gzip",
        workload={"name": "gzip", "frac_load": 0.25},
        seed=3,
        n_instructions=1000,
        processor={"issue_width": 8},
        n_cycles=4,
        warmup_cycles=2,
        schedule="null",
        overlay="none",
    )


def completed_capture(key, currents, instructions=(7, 19)) -> TraceCapture:
    """A capture that passes ``finish`` for ``currents``."""
    vdd, cycle_seconds = 1.2, 1e-10
    capture = TraceCapture(key)
    capture.currents = list(currents)
    energy, boundary = 0.0, None
    for i, amps in enumerate(capture.currents):
        if i == key.warmup_cycles:
            boundary = energy
        energy += amps * vdd * cycle_seconds
    assert capture.finish(
        {"energy": boundary, "phantom": 0.0, "instructions": instructions[0]},
        {"energy": energy, "phantom": 0.0, "instructions": instructions[1]},
        vdd, cycle_seconds,
    )
    return capture


def temp_files(root) -> list:
    return [p for p in pathlib.Path(root).rglob("*") if ".tmp" in p.name]


def runtime_warnings(caught, fragment: str) -> list:
    return [
        w for w in caught
        if issubclass(w.category, RuntimeWarning) and fragment in str(w.message)
    ]


@pytest.fixture(autouse=True)
def fresh_warnings():
    """warn_once deduplicates per process; every test sees its own."""
    reset_warn_dedup()
    yield
    reset_warn_dedup()


@pytest.fixture
def registry():
    installed = obs_metrics.MetricsRegistry()
    obs_metrics.set_active_registry(installed)
    yield installed
    obs_metrics.set_active_registry(None)


@pytest.fixture
def no_directory_fsync(monkeypatch):
    """A filesystem whose directory fsync fails with EINVAL."""
    original = durable._fsync

    def fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(errno.EINVAL, "Invalid argument")
        return original(fd)

    monkeypatch.setattr(durable, "_fsync", fsync)


# ----------------------------------------------------------------------
# The write path itself
# ----------------------------------------------------------------------

class TestAtomicWrite:
    def test_writes_text_and_returns_its_byte_count(self, tmp_path):
        path = tmp_path / "deep" / "file.json"
        assert durable.atomic_write(str(path), '{"a":1}') == 7
        assert path.read_text() == '{"a":1}'
        assert durable.atomic_write(str(path), "{}") == 2
        assert path.read_text() == "{}"
        assert not temp_files(tmp_path)

    def test_fsyncs_the_file_then_its_directory(self, tmp_path, monkeypatch):
        kinds = []
        original = durable._fsync

        def fsync(fd):
            kinds.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            return original(fd)

        monkeypatch.setattr(durable, "_fsync", fsync)
        durable.atomic_write(str(tmp_path / "f"), "x")
        assert kinds == [False, True]

    def test_failed_fsync_removes_the_temp_file(self, tmp_path):
        path = tmp_path / "f"
        path.write_text("old")
        with inject_fsync_faults(every=1):
            with pytest.raises(OSError):
                durable.atomic_write(str(path), "new")
        assert path.read_text() == "old"
        assert not temp_files(tmp_path)

    def test_quarantine_takes_the_next_free_suffix(self, tmp_path):
        for n in range(2):
            path = tmp_path / "bad.json"
            path.write_text(str(n))
            moved = durable.quarantine(str(path))
            assert moved == f"{path}.corrupt-{n}"
            assert not path.exists()
        assert (tmp_path / "bad.json.corrupt-1").read_text() == "1"


class TestTraceStoreWithoutDirectoryFsync:
    def test_records_and_replays(self, tmp_path, no_directory_fsync):
        store_dir = str(tmp_path / "store")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            recorder = TraceStore(store_dir)
            assert recorder.save(completed_capture(fixture_key(), [1.0] * 6))
            assert recorder.stats["records"] == 1

            first = TraceStore(store_dir)
            plain = BenchmarkRunner(SMALL, trace_store=first).run_base("gzip")
            assert first.stats["misses"] == 1
            assert first.stats["records"] == 1

            second = TraceStore(store_dir)
            replayed = BenchmarkRunner(SMALL, trace_store=second).run_base(
                "gzip"
            )
        assert second.stats["hits"] == 1
        assert second.stats["records"] == 0
        assert replayed == plain
        assert not runtime_warnings(caught, "trace store")


# ----------------------------------------------------------------------
# runner_checkpoint_* count the checkpoint's writes and nothing else
# ----------------------------------------------------------------------

def checkpoint_counts(registry):
    return (
        registry.counter("runner_checkpoint_bytes_total").value(),
        registry.counter("runner_checkpoint_fsyncs_total").value(),
    )


class TestCheckpointCounters:
    def test_job_records_leave_the_counters_alone(self, tmp_path, registry):
        store = JobStore(str(tmp_path))
        record = store.create("t", {"technique": "tuning"}, total_cells=1)
        store.transition(record.job_id, "running")
        store.transition(record.job_id, "done")
        assert checkpoint_counts(registry) == (0.0, 0.0)

    def test_checkpointed_sweep_counts_checkpoint_and_sidecar(
        self, tmp_path, registry
    ):
        ck = tmp_path / "ck.json"
        BenchmarkRunner(SMALL).sweep(
            tuning_factory,
            benchmarks=("gzip",),
            resilience=ResilienceConfig(
                checkpoint_path=str(ck),
                trace_store_path=str(tmp_path / "store"),
            ),
        )
        assert os.listdir(tmp_path / "store" / "index")  # not counted
        sidecar = tmp_path / "ck.json.summary.json"
        # One cell: one checkpoint flush plus the summary sidecar, each a
        # file fsync and a directory fsync.
        assert checkpoint_counts(registry) == (
            float(ck.stat().st_size + sidecar.stat().st_size), 4.0
        )


# ----------------------------------------------------------------------
# Write faults outside the checkpoint
# ----------------------------------------------------------------------

class TestWriteFaultsOutsideTheCheckpoint:
    def test_trace_store_save_fails_cleanly(self, tmp_path):
        store = TraceStore(str(tmp_path / "store"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with inject_fsync_faults(every=1) as hits:
                saved = store.save(completed_capture(fixture_key(), [1.0] * 6))
        assert saved is False
        assert hits["faults"] == 1
        assert store.stats["records"] == 0
        assert len(runtime_warnings(caught, "trace store write failed")) == 1
        assert not temp_files(tmp_path)

    def test_replay_sweep_matches_fault_free_fingerprint(self, tmp_path):
        clean = BenchmarkRunner(SMALL).sweep(
            tuning_factory, benchmarks=BENCHMARKS
        )
        resilience = ResilienceConfig(trace_store_path=str(tmp_path / "store"))
        with pytest.warns(RuntimeWarning, match="trace store write failed"):
            with inject_fsync_faults(every=1) as hits:
                faulted = BenchmarkRunner(SMALL).sweep(
                    tuning_factory, benchmarks=BENCHMARKS,
                    resilience=resilience,
                )
        assert hits["faults"] > 0
        assert fingerprint(faulted) == fingerprint(clean)
        assert not temp_files(tmp_path)

    def test_job_store_create_raises_and_leaves_no_temp_file(self, tmp_path):
        store = JobStore(str(tmp_path))
        with inject_fsync_faults(every=1):
            with pytest.raises(OSError):
                store.create("t", {"technique": "tuning"}, total_cells=1)
        assert os.listdir(store.jobs_dir) == []
        assert store.list_records() == []


# ----------------------------------------------------------------------
# On-disk formats
# ----------------------------------------------------------------------

class TestOnDiskFormats:
    """The fixtures under ``fixtures/formats`` were written by the code
    before the checkpoint format and the durable write moved; loading
    them and writing them back must reproduce every byte."""

    def test_v2_checkpoint_rewrites_byte_for_byte(self, tmp_path):
        fixture = FIXTURES / "checkpoint_v2.json"
        ck = tmp_path / "ck.json"
        shutil.copy(fixture, ck)
        checkpoint = SweepCheckpoint.open(
            ResilienceConfig(checkpoint_path=str(ck), resume=True),
            SweepConfig(n_cycles=3000, warmup_cycles=500),
            0, "resonance-tuning",
        )
        assert len(checkpoint.cells) == 3
        # Round trip the resumed cells through RelativeMetrics.
        for cell in (("gzip", None), ("swim", None)):
            metrics = checkpoint.completed(cell)
            assert metrics.technique == "resonance-tuning"
            checkpoint.record(cell, metrics)
        assert checkpoint.completed(("mcf", None)) is None
        checkpoint.flush()
        assert ck.read_bytes() == fixture.read_bytes()
        assert not temp_files(tmp_path)

    def test_job_record_rewrites_byte_for_byte(self, tmp_path):
        fixture = FIXTURES / "serve" / "jobs" / "job-00000000c0ffee00.json"
        shutil.copytree(FIXTURES / "serve", tmp_path / "serve")
        store = JobStore(str(tmp_path / "serve"))
        assert store.recover() == []
        record = store.get("job-00000000c0ffee00")
        assert record.state == "done"
        assert record.finished_at == 1700000042.125
        store.update(record.job_id, lambda _: None)
        rewritten = pathlib.Path(store.record_path(record.job_id))
        assert rewritten.read_bytes() == fixture.read_bytes()

    def test_trace_store_entry_rewrites_byte_for_byte(self, tmp_path):
        fixture = FIXTURES / "trace-store"
        # A copy: a failed guard would quarantine the entry it read.
        shutil.copytree(fixture, tmp_path / "recorded")
        reader = TraceStore(str(tmp_path / "recorded"))
        key = fixture_key()
        payload = reader.load(key)
        assert payload is not None
        assert reader.stats["hits"] == 1
        capture = completed_capture(
            key, payload.currents,
            (payload.instructions_warmup, payload.instructions_total),
        )
        writer = TraceStore(str(tmp_path / "rewritten"))
        assert writer.save(capture)
        for kind in ("index", "objects"):
            (name,) = os.listdir(fixture / kind)
            assert (tmp_path / "rewritten" / kind / name).read_bytes() == (
                fixture / kind / name
            ).read_bytes()

    def test_resume_from_v1_checkpoint_reruns_nothing(self, tmp_path):
        ck = tmp_path / "ck.json"
        first = BenchmarkRunner(SMALL).sweep(
            tuning_factory, benchmarks=BENCHMARKS,
            resilience=ResilienceConfig(checkpoint_path=str(ck)),
        )
        legacy = tmp_path / "v1.json"
        legacy.write_text(json.dumps({
            "version": 1,
            "n_cycles": SMALL.n_cycles,
            "warmup_cycles": SMALL.warmup_cycles,
            "cells": load_checkpoint(str(ck))["cells"],
        }))
        assert load_checkpoint(str(legacy))["version"] == 1
        resumed = BenchmarkRunner(SMALL).sweep(
            tuning_factory, benchmarks=BENCHMARKS,
            resilience=ResilienceConfig(
                checkpoint_path=str(legacy), resume=True
            ),
        )
        assert fingerprint(resumed) == fingerprint(first)
        assert resumed.timings["cells_total"] == float(len(BENCHMARKS))
        assert resumed.timings["cells_cached"] == float(len(BENCHMARKS))
