"""Tests for the one durable-write path and the formats written through it.

:mod:`repro.durable` writes every checkpoint, sidecar and trace-store
entry.  Covered here: the write itself (temp file, fsyncs, cleanup,
filesystems that cannot fsync a directory), quarantine, which writes
the two ``runner_checkpoint_*`` counters count, injected write faults
reaching the trace store, and the on-disk formats: committed fixtures
must load and re-write byte for byte, a version-1 checkpoint must still
resume, and a version-1 trace-store entry must be a clean miss.
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
from repro.sim import (
    BenchmarkRunner,
    ResilienceConfig,
    SweepConfig,
    load_checkpoint,
)
from repro.sim.checkpoint import SweepCheckpoint, spec_digest
from repro.trace import TraceCapture, TraceKey, TraceStore

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "formats"
SMALL = SweepConfig(n_cycles=1200, warmup_cycles=150)
BENCHMARKS = ("swim", "gzip")


def tuning_factory(supply, processor):
    return ResonanceTuningController(supply, processor)


def fingerprint(summary):
    return json.dumps(dataclasses.asdict(summary), sort_keys=True)


def fixture_key() -> TraceKey:
    """The key the committed trace-store fixtures were recorded under, at
    the current store version."""
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
    original = durable.fsync

    def fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(errno.EINVAL, "Invalid argument")
        return original(fd)

    monkeypatch.setattr(durable, "fsync", fsync)


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
        original = durable.fsync

        def fsync(fd):
            kinds.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            return original(fd)

        monkeypatch.setattr(durable, "fsync", fsync)
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
    def test_checkpointed_sweep_counts_checkpoint_and_sidecar(
        self, tmp_path, registry
    ):
        ck = tmp_path / "ck.json"
        BenchmarkRunner(SMALL, trace_store=str(tmp_path / "store")).sweep(
            tuning_factory,
            benchmarks=("gzip",),
            resilience=ResilienceConfig(checkpoint_path=str(ck)),
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
        store_dir = str(tmp_path / "store")
        with pytest.warns(RuntimeWarning, match="trace store write failed"):
            with inject_fsync_faults(every=1) as hits:
                faulted = BenchmarkRunner(SMALL, trace_store=store_dir).sweep(
                    tuning_factory, benchmarks=BENCHMARKS,
                )
        assert hits["faults"] > 0
        assert fingerprint(faulted) == fingerprint(clean)
        assert not temp_files(tmp_path)


# ----------------------------------------------------------------------
# On-disk formats
# ----------------------------------------------------------------------

class TestOnDiskFormats:
    """The checkpoint fixture under ``fixtures/formats`` was written
    before the checkpoint format and the durable write moved,
    ``trace-store-v2`` by the version-2 trace store; loading them and
    writing them back must reproduce every byte.  ``trace-store`` holds
    a version-1 entry, which a version-2 store never reads."""

    def test_v2_checkpoint_rewrites_byte_for_byte(self, tmp_path):
        fixture = FIXTURES / "checkpoint_v2.json"
        ck = tmp_path / "ck.json"
        shutil.copy(fixture, ck)
        config = SweepConfig(n_cycles=3000, warmup_cycles=500)
        spec = spec_digest(
            config, None, tuning_factory(config.supply, config.processor)
        )
        checkpoint = SweepCheckpoint.open(
            ResilienceConfig(checkpoint_path=str(ck), resume=True),
            config, spec, "resonance-tuning",
        )
        assert len(checkpoint.cells) == 3
        # Its cells predate content keys (``s<n>|...``), so the sweep
        # they came from is unknown: none is served, each would re-run.
        for key in checkpoint.cells:
            _, name, technique, seed = key.split("|")
            resumed = SweepCheckpoint(
                str(ck), config, spec, technique, checkpoint.cells,
            )
            cell = (name, None if seed == "-" else int(seed))
            assert resumed.completed(cell) is None
        checkpoint.flush()
        assert ck.read_bytes() == fixture.read_bytes()
        assert not temp_files(tmp_path)

    def test_trace_store_entry_rewrites_byte_for_byte(self, tmp_path):
        fixture = FIXTURES / "trace-store-v2"
        # A copy: a failed guard would quarantine the entry it read.
        shutil.copytree(fixture, tmp_path / "recorded")
        reader = TraceStore(str(tmp_path / "recorded"))
        key = fixture_key()
        payload = reader.load(key)
        assert payload is not None
        assert reader.stats["hits"] == 1
        assert payload.currents.tolist() == [1.5, 2.25, 3.0, 1.0, 0.5, 2.0]
        assert (payload.instructions_warmup, payload.instructions_total) == (
            7, 19
        )
        capture = completed_capture(
            key, payload.currents.tolist(),
            (payload.instructions_warmup, payload.instructions_total),
        )
        writer = TraceStore(str(tmp_path / "rewritten"))
        assert writer.save(capture)
        for kind in ("index", "objects"):
            (name,) = os.listdir(fixture / kind)
            assert (tmp_path / "rewritten" / kind / name).read_bytes() == (
                fixture / kind / name
            ).read_bytes()

    def test_v1_trace_store_entry_is_a_clean_miss(self, tmp_path):
        fixture = FIXTURES / "trace-store"
        shutil.copytree(fixture, tmp_path / "v1")

        def snapshot():
            return {
                path.relative_to(tmp_path / "v1"): path.read_bytes()
                for path in sorted((tmp_path / "v1").rglob("*"))
                if path.is_file()
            }

        before = snapshot()
        assert len(before) == 2  # one index entry, one object
        store = TraceStore(str(tmp_path / "v1"))
        assert store.load(fixture_key()) is None
        assert store.stats["misses"] == 1
        assert store.stats["guard_failures"] == 0
        assert store.drain_incidents() == []
        assert snapshot() == before

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
