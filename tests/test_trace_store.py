"""Tests for the content-addressed trace store (repro.trace.store).

Two layers:

* **Unit**: key digests, capture validation (the replayability proof),
  the binary encoding, durable save/load round trips, objects shared by
  several keys, overlay tokens.
* **Corruption**: every way an on-disk entry can rot -- truncation, bit
  flips, zero-byte files, wrong-digest entries, version skew, a bad
  sample encoding, an edited instruction count -- must degrade to a
  guard miss (full simulation, incident recorded, file quarantined),
  never a crash and never silent reuse of bad data.
"""

import base64
import dataclasses
import hashlib
import json
import os
import shutil
import struct
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import TABLE1_PROCESSOR
from repro.errors import TraceStoreError
from repro.faults import ResonantAttacker
from repro.faults.chaos import HangAlways, flip_bit, truncate_file
from repro.oracles import golden
from repro.sim import BenchmarkRunner, ResilienceConfig, SweepConfig
from repro.trace import (
    STORE_VERSION,
    TraceCapture,
    TraceKey,
    TraceStore,
    canonical_digest,
    overlay_token,
)
from repro.trace.store import energy_ledger
from repro.uarch import SPEC2K

SMALL = SweepConfig(n_cycles=1200, warmup_cycles=150)


def make_key(**overrides) -> TraceKey:
    fields = dict(
        benchmark="unit",
        workload={"name": "unit", "frac_load": 0.25},
        seed=3,
        n_instructions=1000,
        processor={"issue_width": 8},
        n_cycles=4,
        warmup_cycles=2,
        schedule="null",
        overlay="none",
    )
    fields.update(overrides)
    return TraceKey(**fields)


def make_capture(key=None, currents=(1.5, 2.25, 3.0, 1.0, 0.5, 2.0),
                 vdd=1.2, cycle_seconds=1e-10,
                 instructions=(7, 19)) -> TraceCapture:
    """A completed capture whose snapshots match the recorded currents."""
    key = key or make_key()
    capture = TraceCapture(key)
    capture.currents = list(currents)
    energy = 0.0
    boundary_energy = None
    for i, amps in enumerate(capture.currents):
        if i == key.warmup_cycles:
            boundary_energy = energy
        energy += amps * vdd * cycle_seconds
    boundary = {"energy": boundary_energy, "phantom": 0.0,
                "instructions": instructions[0]}
    end = {"energy": energy, "phantom": 0.0, "instructions": instructions[1]}
    assert capture.finish(boundary, end, vdd, cycle_seconds)
    return capture


# ----------------------------------------------------------------------
# Keys and digests
# ----------------------------------------------------------------------

class TestKeysAndDigests:
    def test_digest_is_stable_and_field_sensitive(self):
        assert make_key().digest() == make_key().digest()
        assert make_key().digest() != make_key(seed=4).digest()
        assert make_key().digest() != make_key(n_cycles=5).digest()
        assert make_key().digest() != make_key(schedule="declared:x").digest()
        assert make_key().digest() != make_key(version=STORE_VERSION + 1).digest()

    def test_canonical_digest_is_float_exact(self):
        # 0.1 + 0.2 != 0.3 in binary: the hex canonicalization must see
        # the difference repr-rounding could mask.
        assert canonical_digest({"x": 0.1 + 0.2}) != canonical_digest({"x": 0.3})
        assert canonical_digest({"a": 1, "b": 2.0}) == canonical_digest(
            {"b": 2.0, "a": 1}
        )

    def test_overlay_token_cases(self):
        assert overlay_token(None) == "none"
        token = overlay_token(("picklable", 1.5))
        assert token.startswith("pickle-sha256:")
        assert token == overlay_token(("picklable", 1.5))
        assert token != overlay_token(("picklable", 2.5))
        assert overlay_token(lambda s, b: s) is None  # unpicklable closure


# ----------------------------------------------------------------------
# Capture validation (the replayability proof)
# ----------------------------------------------------------------------

class TestCaptureValidation:
    def test_valid_capture_completes(self):
        capture = make_capture()
        assert capture.completed
        assert capture.instructions_warmup == 7
        assert capture.instructions_total == 19

    def test_wrong_length_rejected(self):
        capture = TraceCapture(make_key())
        capture.currents = [1.0] * 5  # expected 6
        assert not capture.finish(
            {"energy": 0.0, "phantom": 0.0, "instructions": 0},
            {"energy": 0.0, "phantom": 0.0, "instructions": 0},
            1.0, 1e-10,
        )
        assert not capture.completed

    def test_phantom_energy_rejected(self):
        # Phantom current is injected by controller floors and is not
        # derivable from the trace: such runs must never be recorded.
        capture = TraceCapture(make_key())
        capture.currents = [1.0] * 6
        assert not capture.finish(
            {"energy": 2e-10, "phantom": 0.0, "instructions": 0},
            {"energy": 6e-10, "phantom": 1e-12, "instructions": 0},
            1.0, 1e-10,
        )

    def test_energy_mismatch_rejected(self):
        capture = TraceCapture(make_key())
        capture.currents = [1.0] * 6
        assert not capture.finish(
            {"energy": 2e-10, "phantom": 0.0, "instructions": 0},
            {"energy": 7e-10, "phantom": 0.0, "instructions": 0},
            1.0, 1e-10,
        )

    def test_store_refuses_unfinished_capture(self, tmp_path):
        store = TraceStore(str(tmp_path))
        with pytest.raises(TraceStoreError):
            store.save(TraceCapture(make_key()))

    @given(
        currents=st.lists(st.floats(0.0, 200.0), min_size=1, max_size=300),
        vdd=st.floats(0.5, 2.0),
        cycle_seconds=st.floats(1e-11, 1e-9),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_energy_ledger_matches_the_power_model_loop(
        self, currents, vdd, cycle_seconds, data
    ):
        # The reference is the power model's own per-cycle accumulation.
        warmup = data.draw(st.integers(0, len(currents) - 1))
        energy, boundary = 0.0, None
        for i, amps in enumerate(currents):
            if i == warmup:
                boundary = energy
            energy += amps * vdd * cycle_seconds
        ledger = energy_ledger(currents, warmup, vdd, cycle_seconds)
        assert [value.hex() for value in ledger] == [
            boundary.hex(), energy.hex()
        ]


# ----------------------------------------------------------------------
# The encoding: two int64 counts, then float64 samples, both little-endian
# ----------------------------------------------------------------------

def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: Every float64: Hypothesis' own floats (signed zeros, subnormals,
#: infinities, NaNs) plus raw bit patterns, which reach NaN payloads.
ANY_FLOAT64 = st.one_of(
    st.floats(), st.integers(0, 2 ** 64 - 1).map(_from_bits)
)
INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)


@st.composite
def recorded_traces(draw):
    samples = draw(st.lists(ANY_FLOAT64, min_size=1, max_size=48))
    warmup = draw(st.integers(0, len(samples) - 1))
    return samples, warmup, (draw(INT64), draw(INT64))


SPECIAL_SAMPLES = [
    -0.0, 5e-324, -2.2250738585072e-308, float("inf"), float("-inf"),
    _from_bits(0x7FF0000000000001), _from_bits(0xFFF800000000DEAD),
]


class TestEncoding:
    @given(trace=recorded_traces())
    @example(trace=(SPECIAL_SAMPLES, 2, (0, 2 ** 63 - 1)))
    @settings(max_examples=60, deadline=None)
    def test_any_samples_and_counts_round_trip_bit_for_bit(self, trace):
        samples, warmup, counts = trace
        key = make_key(n_cycles=len(samples) - warmup, warmup_cycles=warmup)
        capture = TraceCapture(key)
        capture.currents = list(samples)
        capture.instructions_warmup, capture.instructions_total = counts
        # NaN and infinite samples cannot pass the energy proof; the
        # encoding must carry them anyway.
        capture.completed = True
        blob = struct.pack(f"<2q{len(samples)}d", *counts, *samples)
        sha = hashlib.sha256(blob).hexdigest()
        with tempfile.TemporaryDirectory() as root:
            assert TraceStore(root).save(capture)
            assert os.listdir(os.path.join(root, "objects")) == [f"{sha}.json"]
            payload = TraceStore(root).load(key)
        assert payload is not None
        assert payload.content_sha256 == sha
        assert payload.currents.tobytes() == blob[16:]
        assert (payload.instructions_warmup,
                payload.instructions_total) == counts
        assert (payload.warmup_cycles, payload.n_cycles) == (
            warmup, len(samples) - warmup
        )

    def test_golden_trace_round_trips_to_committed_fingerprint(self, tmp_path):
        # The samples a store hands back must hash to the committed
        # float.hex fingerprint.  The gzip/base golden cell is a runner
        # base cell with the golden instruction budget.
        cell = next(c for c in golden.GOLDEN_CELLS if c.key == "gzip/base")
        n_instructions = 60_000
        config = SweepConfig(
            n_cycles=cell.n_cycles,
            warmup_cycles=cell.warmup_cycles,
            trace_instructions=n_instructions,
        )
        BenchmarkRunner(config, trace_store=str(tmp_path)).run_base("gzip")
        profile = SPEC2K["gzip"]
        key = TraceKey(
            benchmark="gzip",
            workload=dataclasses.asdict(profile),
            seed=profile.seed,
            n_instructions=n_instructions,
            processor=dataclasses.asdict(TABLE1_PROCESSOR),
            n_cycles=cell.n_cycles,
            warmup_cycles=cell.warmup_cycles,
            schedule="null",
            overlay="none",
        )
        payload = TraceStore(str(tmp_path)).load(key)
        assert payload is not None
        committed = golden.load_goldens()["cells"][cell.key]
        assert golden.stream_digest(payload.currents) == (
            committed["replay_trace_sha256"]
        )


# ----------------------------------------------------------------------
# Save / load round trips
# ----------------------------------------------------------------------

class Attack:
    """Picklable supply overlay: the attacker adds current the processor
    never draws, so the recorded trace equals the plain one."""

    def __call__(self, supply, benchmark):
        return ResonantAttacker(supply, amplitude_amps=12.0, seed=99)


def quarantined_files(root) -> list:
    return [
        name for _, _, names in os.walk(root) for name in names
        if ".corrupt-" in name
    ]


class TestRoundTrip:
    def test_save_then_load_from_fresh_store(self, tmp_path):
        capture = make_capture()
        writer = TraceStore(str(tmp_path))
        assert writer.save(capture)
        assert writer.stats["records"] == 1
        reader = TraceStore(str(tmp_path))
        assert reader.contains(capture.key)
        payload = reader.load(capture.key, label="unit")
        assert payload is not None
        assert payload.currents.tolist() == capture.currents
        (object_name,) = os.listdir(reader.objects_dir)
        assert object_name == f"{payload.content_sha256}.json"
        assert payload.instructions_warmup == 7
        assert payload.instructions_total == 19
        assert reader.stats == {
            "hits": 1, "misses": 0, "guard_failures": 0,
            "fallbacks": 0, "records": 0,
        }

    def test_miss_counts_and_returns_none(self, tmp_path):
        store = TraceStore(str(tmp_path))
        assert store.load(make_key()) is None
        assert store.stats["misses"] == 1
        assert not store.incidents

    def test_every_load_reads_from_disk(self, tmp_path):
        store = TraceStore(str(tmp_path))
        capture = make_capture()
        store.save(capture)
        assert store.load(capture.key) is not None
        for directory in (store.index_dir, store.objects_dir):
            for name in os.listdir(directory):
                os.unlink(os.path.join(directory, name))
        assert store.load(capture.key) is None
        assert store.stats["hits"] == 1
        assert store.stats["misses"] == 1

    def test_object_dedup_across_keys(self, tmp_path):
        # Same trace under two keys: one object, two index entries, and
        # both keys keep loading it.
        keys = (make_key(), make_key(seed=99))
        store = TraceStore(str(tmp_path))
        for key in keys:
            store.save(make_capture(key=key))
        assert len(os.listdir(store.objects_dir)) == 1
        assert len(os.listdir(store.index_dir)) == 2
        for _ in range(3):
            for key in keys:
                payload = store.load(key)
                assert payload.currents.tolist() == make_capture().currents
        assert store.stats["hits"] == 6
        assert store.stats["guard_failures"] == 0
        assert not quarantined_files(tmp_path)

    def test_plain_and_overlay_base_cells_share_one_object(self, tmp_path):
        # The overlay token makes two keys; the processor current, and so
        # the object, is the same.  Neither key may reject it.
        store_dir = str(tmp_path / "store")
        expected = {
            transform: BenchmarkRunner(
                SMALL, supply_transform=transform
            ).run_base("gzip")
            for transform in (None, Attack())
        }
        stores = []
        for _ in range(3):
            for transform, plain in expected.items():
                store = TraceStore(store_dir)
                runner = BenchmarkRunner(
                    SMALL, trace_store=store, supply_transform=transform
                )
                assert runner.run_base("gzip") == plain
                stores.append(store)
        assert [store.stats["guard_failures"] for store in stores] == [0] * 6
        assert not quarantined_files(store_dir)
        assert [store.stats["records"] for store in stores] == [1, 1] + [0] * 4
        assert [store.stats["hits"] for store in stores] == [0, 0] + [1] * 4
        assert len(os.listdir(os.path.join(store_dir, "objects"))) == 1

    @pytest.mark.parametrize(
        "count", ["instructions_warmup", "instructions_total"]
    )
    def test_edited_instruction_count_trips_a_guard(self, tmp_path, count):
        # Record the same currents with one count off by one, and put
        # that object where the true one lives: a replay must never
        # report the edited count.
        store = TraceStore(str(tmp_path / "store"))
        store.save(make_capture())
        edited = dict(instructions_warmup=7, instructions_total=19)
        edited[count] -= 1
        other = TraceStore(str(tmp_path / "edited"))
        other.save(make_capture(instructions=tuple(edited.values())))
        (true_name,) = os.listdir(store.objects_dir)
        (edited_name,) = os.listdir(other.objects_dir)
        shutil.copy(
            os.path.join(other.objects_dir, edited_name),
            os.path.join(store.objects_dir, true_name),
        )
        reader = TraceStore(str(tmp_path / "store"))
        assert reader.load(make_key()) is None
        assert reader.stats["guard_failures"] == 1


# ----------------------------------------------------------------------
# Corruption: every rot mode degrades to guard-miss + incident
# ----------------------------------------------------------------------

def _entry_paths(store: TraceStore):
    index_path = os.path.join(store.index_dir, os.listdir(store.index_dir)[0])
    object_path = os.path.join(
        store.objects_dir, os.listdir(store.objects_dir)[0]
    )
    return index_path, object_path


def _rewrite_json(path, mutate):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    mutate(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _rewrite_blob(path, mutate):
    """Decode an object's blob, replace it with ``mutate(blob)``, and
    re-encode it, leaving the file's name (its address) as it was."""
    def edit(obj):
        blob = mutate(base64.b64decode(obj["blob"]))
        obj["blob"] = base64.b64encode(blob).decode("ascii")

    _rewrite_json(path, edit)


class TestCorruptionGuards:
    def _seeded_store(self, tmp_path):
        store = TraceStore(str(tmp_path))
        capture = make_capture()
        store.save(capture)
        return capture.key, _entry_paths(store)

    def _assert_guarded(self, tmp_path, key, reason_fragment):
        store = TraceStore(str(tmp_path))
        assert store.load(key, label="unit") is None
        assert store.stats["guard_failures"] == 1
        assert store.stats["fallbacks"] == 1
        (incident,) = store.drain_incidents()
        assert incident["error_type"] == "TraceStoreCorrupt"
        assert incident["benchmark"] == "unit"
        assert reason_fragment in incident["reason"]
        assert not store.drain_incidents()
        return incident

    def test_truncated_object(self, tmp_path):
        key, (_, object_path) = self._seeded_store(tmp_path)
        truncate_file(object_path, 0.5)
        self._assert_guarded(tmp_path, key, "unreadable object")
        assert os.path.exists(f"{object_path}.corrupt-0")

    def test_truncated_sample_list(self, tmp_path):
        key, (_, object_path) = self._seeded_store(tmp_path)
        _rewrite_blob(object_path, lambda blob: blob[:-8])
        self._assert_guarded(tmp_path, key, "trace truncated")

    def test_bit_flipped_object(self, tmp_path):
        key, (_, object_path) = self._seeded_store(tmp_path)
        flip_bit(object_path)
        incident = self._assert_guarded(tmp_path, key, "")
        # Depending on which byte the flip lands in, the guard trips as a
        # JSON parse error, a bad base64 character or a hash mismatch --
        # all acceptable; silent acceptance is not.
        assert incident["kind"] == "object"

    def test_flipped_sample_value_is_a_hash_mismatch(self, tmp_path):
        key, (_, object_path) = self._seeded_store(tmp_path)
        sample = 16 + 8 * 3
        _rewrite_blob(
            object_path,
            lambda blob: blob[:sample] + struct.pack("<d", 99.0)
            + blob[sample + 8:],
        )
        self._assert_guarded(tmp_path, key, "content hash mismatch")

    def test_zero_byte_index(self, tmp_path):
        key, (index_path, _) = self._seeded_store(tmp_path)
        open(index_path, "w").close()
        self._assert_guarded(tmp_path, key, "unreadable index")
        assert os.path.exists(f"{index_path}.corrupt-0")

    def test_zero_byte_object(self, tmp_path):
        key, (_, object_path) = self._seeded_store(tmp_path)
        open(object_path, "w").close()
        self._assert_guarded(tmp_path, key, "unreadable object")

    def test_missing_object(self, tmp_path):
        key, (_, object_path) = self._seeded_store(tmp_path)
        os.unlink(object_path)
        self._assert_guarded(tmp_path, key, "content object missing")

    def test_wrong_digest_index(self, tmp_path):
        key, (index_path, _) = self._seeded_store(tmp_path)
        _rewrite_json(
            index_path,
            lambda i: i.__setitem__("config_digest", "0" * 64),
        )
        self._assert_guarded(tmp_path, key, "config digest mismatch")

    def test_wrong_digest_object(self, tmp_path):
        # An intact object of another trace, filed under this address.
        key, (_, object_path) = self._seeded_store(tmp_path)
        other = TraceStore(str(tmp_path / "other"))
        other.save(make_capture(currents=(9.0,) * 6))
        _, other_object = _entry_paths(other)
        shutil.copy(other_object, object_path)
        self._assert_guarded(tmp_path, key, "content hash mismatch")

    def test_version_skew_index(self, tmp_path):
        key, (index_path, _) = self._seeded_store(tmp_path)
        _rewrite_json(
            index_path,
            lambda i: i.__setitem__("version", STORE_VERSION + 1),
        )
        self._assert_guarded(tmp_path, key, "version")

    def test_version_skew_object(self, tmp_path):
        key, (_, object_path) = self._seeded_store(tmp_path)
        _rewrite_json(
            object_path,
            lambda o: o.__setitem__("version", STORE_VERSION - 1),
        )
        self._assert_guarded(tmp_path, key, "bad object version")

    def test_index_cycle_counts_must_match_the_key(self, tmp_path):
        key, (index_path, _) = self._seeded_store(tmp_path)
        _rewrite_json(index_path, lambda i: i.__setitem__("n_cycles", 5))
        self._assert_guarded(tmp_path, key, "cycle counts")

    def test_malformed_sample_encoding(self, tmp_path):
        # A character outside the base64 alphabet.  Lenient decoding
        # would skip it and pass every later guard; strict decoding
        # rejects the file.
        key, (_, object_path) = self._seeded_store(tmp_path)
        _rewrite_json(
            object_path, lambda o: o.__setitem__("blob", "*" + o["blob"])
        )
        self._assert_guarded(tmp_path, key, "malformed sample encoding")


# ----------------------------------------------------------------------
# Corruption at the runner level: fallback is invisible in the results
# ----------------------------------------------------------------------

def null_factory(supply, processor):
    from repro.core.controller import NullController

    return NullController()


class TestRunnerFallback:
    def _fingerprint(self, summary):
        return json.dumps(dataclasses.asdict(summary), sort_keys=True)

    def test_corrupt_entry_falls_back_with_incident(self, tmp_path):
        store_dir = str(tmp_path / "store")
        plain = BenchmarkRunner(SMALL).run_base("gzip")
        recorded = BenchmarkRunner(SMALL, trace_store=store_dir).run_base("gzip")
        assert recorded == plain
        store = TraceStore(store_dir)
        index_path, object_path = _entry_paths(store)
        flip_bit(object_path)
        corrupted_runner = BenchmarkRunner(SMALL, trace_store=store_dir)
        corrupted = corrupted_runner.run_base("gzip")
        assert corrupted == plain
        fallback_store = corrupted_runner.session.trace_store
        assert fallback_store.stats["guard_failures"] == 1
        assert fallback_store.stats["fallbacks"] == 1
        # The re-simulation re-records the entry, healing the store.
        assert fallback_store.stats["records"] == 1
        healed = BenchmarkRunner(SMALL, trace_store=store_dir).run_base("gzip")
        assert healed == plain

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_surfaces_corruption_as_incident(self, tmp_path, workers):
        # Two benchmarks, so two workers really fan out: each pool cell's
        # private store must report back into the sweep's.  Stalling
        # gzip's supply makes the pool finish swim first; the incidents
        # must still come in grid order.
        benchmarks = ("gzip", "swim")
        stall = HangAlways("gzip", after_cycles=100, sleep_s=0.3)
        store_dir = str(tmp_path / "store")
        plain = BenchmarkRunner(SMALL, supply_transform=stall).sweep(
            null_factory, benchmarks=benchmarks
        )
        cold = BenchmarkRunner(
            SMALL, supply_transform=stall, trace_store=store_dir
        ).sweep(null_factory, benchmarks=benchmarks)
        store = TraceStore(store_dir)
        objects = sorted(os.listdir(store.objects_dir))
        assert len(objects) == len(benchmarks)
        truncate_file(os.path.join(store.objects_dir, objects[0]), 0.3)
        flip_bit(os.path.join(store.objects_dir, objects[1]))
        with BenchmarkRunner(
            SMALL, supply_transform=stall, trace_store=store_dir
        ) as runner:
            warm = runner.sweep(
                null_factory, benchmarks=benchmarks,
                resilience=ResilienceConfig(workers=workers),
            )
        assert warm.timings["workers"] == float(workers)
        assert self._fingerprint(warm) == self._fingerprint(cold)
        assert self._fingerprint(warm) == self._fingerprint(plain)
        for stat in ("guard_failures", "fallbacks", "records"):
            assert warm.timings[f"trace_{stat}"] == len(benchmarks), stat
        trace_incidents = [
            incident for incident in warm.incidents
            if incident.error_type == "TraceStoreCorrupt"
        ]
        assert [i.benchmark for i in trace_incidents] == list(benchmarks)
        for incident in trace_incidents:
            assert "fell back to full simulation" in incident.message
        # Quarantined evidence stays on disk.
        quarantined = [
            name for name in os.listdir(store.objects_dir)
            if ".corrupt-" in name
        ]
        assert quarantined


# ----------------------------------------------------------------------
# Multiprocess write races
# ----------------------------------------------------------------------

def _race_recorder(store_dir: str, barrier) -> None:
    """Child process: record the shared key as soon as the barrier drops.

    Exit code encodes the save() verdict so the parent can assert both
    writers believed they stored the entry (idempotent success, not
    one-winner-one-error).
    """
    store = TraceStore(store_dir)
    capture = make_capture()
    barrier.wait(timeout=30)
    os._exit(0 if store.save(capture) else 1)


class TestMultiprocessWriteRace:
    """PR 8 claims racing same-key writers are safe by construction
    (pid-suffixed temp files + atomic replace + content addressing).
    Pin that with real concurrent processes, not a thought experiment."""

    def test_concurrent_recorders_one_valid_object(self, tmp_path):
        import multiprocessing

        store_dir = str(tmp_path / "race")
        barrier = multiprocessing.Barrier(2)
        writers = [
            multiprocessing.Process(
                target=_race_recorder, args=(store_dir, barrier)
            )
            for _ in range(2)
        ]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join(timeout=30)
        assert all(proc.exitcode == 0 for proc in writers), (
            "both racing writers must report an idempotent successful save"
        )

        store = TraceStore(store_dir)
        key = make_key()
        # Exactly one object and one index entry -- the second writer
        # replaced byte-identical content, it did not duplicate it.
        objects = sorted(os.listdir(store.objects_dir))
        index_entries = sorted(os.listdir(store.index_dir))
        assert len(objects) == 1
        assert len(index_entries) == 1
        assert index_entries == [f"{key.digest()}.json"]
        # No quarantine, no leaked temp files, anywhere in the store.
        for dirpath, _, filenames in os.walk(store_dir):
            for name in filenames:
                assert ".corrupt-" not in name, (dirpath, name)
                assert ".tmp-" not in name, (dirpath, name)
        # The surviving entry passes the full load guard and replays the
        # recorded trace exactly.
        payload = store.load(key)
        assert payload is not None
        assert payload.currents.tolist() == make_capture().currents
        assert store.stats["guard_failures"] == 0
        assert store.drain_incidents() == []

    def test_racing_writer_idempotent_with_existing_entry(self, tmp_path):
        """A writer landing after the entry already exists (the common
        steady-state race) must leave the stored bytes untouched."""
        store_dir = str(tmp_path / "race2")
        first = TraceStore(store_dir)
        assert first.save(make_capture())
        key = make_key()
        index_path = first._index_path(key.digest())
        with open(index_path, "rb") as fh:
            before = fh.read()

        second = TraceStore(store_dir)
        assert second.save(make_capture())
        with open(index_path, "rb") as fh:
            after = fh.read()
        assert before == after
        assert len(os.listdir(second.objects_dir)) == 1
