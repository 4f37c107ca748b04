"""Golden-trace fingerprinting for the conformance gate.

A *golden cell* is one pinned workload x configuration simulation whose
per-cycle current, voltage and resonant-event streams are canonically
hashed and committed to ``tests/goldens/goldens.json``.  The simulation
stack is deterministic end to end (seeded trace generation, pure float
arithmetic), so the hashes must be byte-identical across runs, whether
the cells run in one process or fan out to ``--workers N`` processes of
:func:`compute_goldens`' own pool, and across supported Python versions
-- any drift means a semantic change leaked into a hot path and every
table in EXPERIMENTS.md is suspect until it is explained.

Canonical encoding: floats are rendered with :meth:`float.hex` (exact, no
shortest-repr ambiguity), events as ``cycle:polarity:count`` lines; each
stream is the SHA-256 of the newline-joined lines.  The committed record
also carries small human-readable summary statistics so a diff points at
*what* moved, not just that something did.

``tools/conformance.py`` is the CLI over this module; the pytest suite
checks the sequential path on every run, and CI additionally asserts
sequential == ``--workers 2`` on Python 3.10 and 3.12.
"""

from __future__ import annotations

import json
import pathlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.config import TABLE1_PROCESSOR, TABLE1_SUPPLY, TABLE1_TUNING
from repro.core import CurrentSensor, ResonanceDetector, ResonanceTuningController
from repro.errors import ConfigurationError, SimulationError
from repro.power import PowerSupply, RLCAnalysis
from repro.sim import Simulation
from repro.uarch import Processor, SPEC2K

__all__ = [
    "GOLDEN_CELLS",
    "GOLDEN_SCHEMA_VERSION",
    "GoldenCell",
    "compute_cell",
    "compute_goldens",
    "default_goldens_path",
    "diff_goldens",
    "load_goldens",
    "render_goldens",
    "stream_digest",
]

GOLDEN_SCHEMA_VERSION = 1

#: Initial CPU current the pinned cells assume before cycle 0 (matches the
#: steady-state start used across the test suite).
_INITIAL_CURRENT_AMPS = 35.0
#: Trace length headroom: cells never commit more instructions than this.
_N_INSTRUCTIONS = 60_000


@dataclass(frozen=True)
class GoldenCell:
    """One pinned workload x configuration conformance cell."""

    benchmark: str
    technique: str  # "base" (NullController) or "tuned" (resonance tuning)
    n_cycles: int = 1500
    warmup_cycles: int = 200

    def __post_init__(self) -> None:
        if self.technique not in ("base", "tuned"):
            raise ConfigurationError(
                f"unknown golden technique {self.technique!r}"
            )
        if self.benchmark not in SPEC2K:
            raise ConfigurationError(
                f"unknown golden benchmark {self.benchmark!r}"
            )

    @property
    def key(self) -> str:
        return f"{self.benchmark}/{self.technique}"


#: The pinned cell set: the paper's two worst violators (lucas, swim), one
#: representative non-violator (gzip), each base and tuned.  Chosen to
#: exercise both hot paths hard (resonant episodes drive the detector and
#: deep supply ringing) while staying cheap enough for every pytest run.
GOLDEN_CELLS = tuple(
    GoldenCell(benchmark, technique)
    for benchmark in ("gzip", "lucas", "swim")
    for technique in ("base", "tuned")
)


def stream_digest(values: Iterable, kind: str = "float") -> str:
    """Canonical SHA-256 of a per-cycle stream.

    ``kind="float"`` hex-encodes each sample exactly (two streams hash
    equal iff they are bit-identical); ``kind="str"`` hashes pre-rendered
    lines such as event records.
    """
    import hashlib

    if kind == "float":
        lines = [float(v).hex() for v in values]
    elif kind == "str":
        lines = [str(v) for v in values]
    else:
        raise ConfigurationError(f"unknown stream kind {kind!r}")
    payload = "\n".join(lines).encode("ascii")
    return hashlib.sha256(payload).hexdigest()


def _event_stream(currents: Sequence[float]) -> List[str]:
    """Replay the Table 1 detector over a recorded current stream.

    Uses a fresh whole-amp sensor and band detector so the event golden
    covers the detector hot path even for base (uncontrolled) cells.
    Goes through the vectorized detector kernel when enabled (the kernel
    is bit-identical to the scalar ``observe`` loop, so the golden hashes
    are invariant either way -- and the goldens thereby gate the kernel).
    """
    from repro.core import kernel as core_kernel

    band = RLCAnalysis(TABLE1_SUPPLY).band
    sensor = CurrentSensor()
    detector = ResonanceDetector(
        half_periods=band.half_periods,
        threshold_amps=TABLE1_TUNING.resonant_current_threshold_amps,
        max_repetition_tolerance=TABLE1_TUNING.max_repetition_tolerance,
    )
    sensed = [sensor.read(amps) for amps in currents]
    if core_kernel.kernel_enabled():
        found = core_kernel.run_detector(detector, sensed)
    else:
        found = [
            event
            for cycle, amps in enumerate(sensed)
            for event in [detector.observe(cycle, amps)]
            if event is not None
        ]
    return [
        f"{event.cycle}:{int(event.polarity)}:{event.count}" for event in found
    ]


def _golden_trace_key(cell: GoldenCell):
    """The record/replay front-end key of one pinned cell."""
    from dataclasses import asdict

    from repro.trace import TraceKey

    profile = SPEC2K[cell.benchmark]
    return TraceKey(
        benchmark=cell.benchmark,
        workload=asdict(profile),
        seed=profile.seed,
        n_instructions=_N_INSTRUCTIONS,
        processor=asdict(TABLE1_PROCESSOR),
        n_cycles=cell.n_cycles,
        warmup_cycles=cell.warmup_cycles,
        schedule="null",
        overlay="none",
    )


def _verified_replay_digest(cell: GoldenCell, capture, result) -> str:
    """``float.hex`` fingerprint of the recorded trace, gated by a replay
    self-check.

    The captured front-end trace is encoded the way a trace store encodes
    it, decoded and replayed in memory (a
    :class:`~repro.trace.replay.ReplaySimulation` against a fresh supply);
    the replayed :class:`SimulationResult` -- recorded current and voltage
    streams included -- must equal the full run's bit-for-bit before the
    fingerprint may enter the goldens.  A divergence raises, so
    ``tools/conformance.py`` fails loudly instead of committing a
    fingerprint the replay path cannot reproduce.
    """
    from repro.trace import TracePayload
    from repro.trace.replay import ReplaySimulation

    if not capture.completed:
        raise SimulationError(
            f"golden cell {cell.key} did not produce a replayable capture"
        )
    payload = TracePayload.from_capture(capture)
    supply = PowerSupply(TABLE1_SUPPLY, initial_current=_INITIAL_CURRENT_AMPS)
    replayed = ReplaySimulation(
        payload, supply, None, record=True, benchmark=cell.benchmark
    ).run(cell.n_cycles)
    if replayed != result:
        raise SimulationError(
            f"replayed golden cell {cell.key} diverged from the full"
            f" simulation"
        )
    return stream_digest(payload.currents)


def compute_cell(cell: GoldenCell) -> dict:
    """Run one pinned cell and return its canonical fingerprint record."""
    controller = None
    if cell.technique == "tuned":
        controller = ResonanceTuningController(
            TABLE1_SUPPLY, TABLE1_PROCESSOR, TABLE1_TUNING
        )
    processor = Processor.from_profile(
        SPEC2K[cell.benchmark],
        n_instructions=_N_INSTRUCTIONS,
        config=TABLE1_PROCESSOR,
        supply_config=TABLE1_SUPPLY,
    )
    supply = PowerSupply(TABLE1_SUPPLY, initial_current=_INITIAL_CURRENT_AMPS)
    simulation = Simulation(
        processor,
        supply,
        controller,
        record=True,
        benchmark=cell.benchmark,
        warmup_cycles=cell.warmup_cycles,
    )
    capture = None
    if cell.technique == "base":
        # Base cells have the replayable null schedule: fingerprint the
        # recorded (warmup + measured) front-end trace too, and prove the
        # replay path reproduces the run before committing the digest.
        from repro.trace import TraceCapture

        capture = TraceCapture(_golden_trace_key(cell))
        simulation.capture = capture
    result = simulation.run(cell.n_cycles)
    events = _event_stream(simulation.currents)
    currents = simulation.currents
    voltages = simulation.voltages
    replay_sha = (
        None if capture is None
        else _verified_replay_digest(cell, capture, result)
    )
    return {
        "n_cycles": cell.n_cycles,
        "warmup_cycles": cell.warmup_cycles,
        "currents_sha256": stream_digest(currents),
        "voltages_sha256": stream_digest(voltages),
        "events_sha256": stream_digest(events, kind="str"),
        # float.hex fingerprint of the full (warmup + measured) recorded
        # trace, None for unreplayable schedules; verified by an
        # in-memory replay round trip before it lands here.  It is not
        # the trace's file name in a repro.trace store.
        "replay_trace_sha256": replay_sha,
        # Human-readable context so a failing diff says what moved.
        "n_events": len(events),
        "violation_cycles": result.violation_cycles,
        "violation_events": result.violation_events,
        "instructions": result.instructions,
        "mean_current_amps": float.hex(sum(currents) / len(currents)),
        "peak_abs_voltage_volts": float.hex(max(abs(v) for v in voltages)),
    }


def _compute_cell_by_key(key: str) -> "tuple[str, dict]":
    """Module-level worker entry point (must stay picklable)."""
    for cell in GOLDEN_CELLS:
        if cell.key == key:
            return key, compute_cell(cell)
    raise ConfigurationError(f"unknown golden cell {key!r}")


def compute_goldens(workers: int = 1) -> Dict[str, dict]:
    """Fingerprint every pinned cell; ``workers > 1`` fans out a process pool.

    The result is assembled in the canonical cell order regardless of the
    backend or completion order, so serialization is byte-identical across
    sequential and parallel runs.
    """
    keys = [cell.key for cell in GOLDEN_CELLS]
    if workers <= 1:
        computed = dict(_compute_cell_by_key(key) for key in keys)
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(keys))) as pool:
            computed = dict(pool.map(_compute_cell_by_key, keys))
    return {key: computed[key] for key in keys}


# ----------------------------------------------------------------------
# Persistence and diffing
# ----------------------------------------------------------------------
def default_goldens_path() -> pathlib.Path:
    """``tests/goldens/goldens.json`` relative to the repository root."""
    return (
        pathlib.Path(__file__).resolve().parents[3]
        / "tests" / "goldens" / "goldens.json"
    )


def render_goldens(cells: Dict[str, dict], reason: str) -> str:
    """Serialize a golden payload canonically (sorted keys, one trailing \\n)."""
    payload = {
        "version": GOLDEN_SCHEMA_VERSION,
        "regen_reason": reason,
        "cells": cells,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_goldens(path: Optional[pathlib.Path] = None) -> dict:
    path = path or default_goldens_path()
    with open(path, "r", encoding="ascii") as handle:
        payload = json.load(handle)
    if payload.get("version") != GOLDEN_SCHEMA_VERSION:
        raise ConfigurationError(
            f"golden schema version {payload.get('version')!r} unsupported "
            f"(expected {GOLDEN_SCHEMA_VERSION}); regenerate with "
            "tools/conformance.py --regen"
        )
    return payload


def diff_goldens(old: Dict[str, dict], new: Dict[str, dict]) -> List[str]:
    """Human-readable description of every difference between two cell maps."""
    lines: List[str] = []
    for key in sorted(set(old) | set(new)):
        if key not in old:
            lines.append(f"{key}: new cell")
            continue
        if key not in new:
            lines.append(f"{key}: cell removed")
            continue
        for field in sorted(set(old[key]) | set(new[key])):
            before = old[key].get(field)
            after = new[key].get(field)
            if before != after:
                lines.append(f"{key}: {field} {before!r} -> {after!r}")
    return lines
