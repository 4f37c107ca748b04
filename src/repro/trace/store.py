"""Content-addressed per-cycle current-trace store (ROADMAP item 2).

The design-space sweeps explore detector thresholds, response policies and
supply RLC variants -- but for a feedback-free controller the per-cycle
current trace is a pure function of the *front end*: workload profile,
seed, instruction budget, processor config, cycle counts and any supply
overlay that perturbs what the processor sees.  This module captures that
trace once per front-end key and lets later cells replay it, following the
record / guard / fallback speculation idiom: record on the first (training)
run, guard on a digest of the front-end-relevant config at reuse, and fall
back to full simulation on any mismatch -- a guard miss costs time, never
correctness.

Layout of a store rooted at ``root/``::

    root/objects/<content_sha256>.json   the trace itself, addressed by the
                                         SHA-256 of its canonical float.hex
                                         encoding (same algorithm as the
                                         golden fingerprints)
    root/index/<config_digest>.json      front-end key digest -> content
                                         address + integrity metadata

Writes go through :func:`repro.durable.atomic_write` (pid-suffixed temp
file in the target directory, fsync, atomic ``os.replace``, directory
fsync).  Corrupt or mismatched entries are moved aside by
:func:`repro.durable.quarantine` to ``<file>.corrupt-<n>`` and reported as
incidents; the caller then re-simulates and (on success) re-records.
Nothing in here imports the simulator -- the replay side lives in
:mod:`repro.trace.replay`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro import durable
from repro.errors import TraceStoreError
from repro.obs import metrics as obs_metrics
from repro.obs.log import warn_once

__all__ = [
    "STORE_VERSION",
    "TraceKey",
    "TracePayload",
    "TraceCapture",
    "TraceStore",
    "canonical_digest",
    "overlay_token",
    "stream_digest",
]

#: Bump on any change to the key schema or payload encoding: a version
#: mismatch is a guard miss (old entries are re-recorded), never a crash.
STORE_VERSION = 1


def stream_digest(values: Iterable) -> str:
    """Canonical SHA-256 of a float stream: newline-joined ``float.hex``.

    Deliberately the same algorithm as the golden fingerprints
    (:func:`repro.oracles.golden.stream_digest` with ``kind="float"``) --
    two streams hash equal iff they are bit-identical -- duplicated here
    so the store does not import the oracle package.  A conformance test
    asserts the two implementations agree.
    """
    lines = [float(v).hex() for v in values]
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def _hexify(obj):
    """Recursively replace floats with their exact hex encoding.

    Canonical-JSON digests must not depend on repr rounding, so every
    float (including ones embedded in dataclass-derived dicts) is encoded
    via ``float.hex`` before serialization.
    """
    if isinstance(obj, float):
        return float(obj).hex()
    if isinstance(obj, dict):
        return {k: _hexify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_hexify(v) for v in obj]
    return obj


def canonical_digest(obj) -> str:
    """SHA-256 of the canonical (sorted-key, compact, float.hex) JSON."""
    return durable.content_digest(_hexify(obj))


def _compact_json(obj) -> str:
    """The on-disk form of index entries and objects."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def overlay_token(supply_transform) -> Optional[str]:
    """Guard token for a supply overlay (attacker wrap etc.).

    An overlay can change what the *processor* experiences only through
    the supply object it wraps; the front end never reads the supply, so
    currents are overlay-independent -- but the overlay still belongs in
    the key defensively: a future overlay that perturbs timing would
    otherwise silently alias a clean trace.  Returns ``"none"`` without a
    transform, a pickle digest for picklable ones, and ``None`` (meaning
    "replay not available") when the transform cannot be fingerprinted.
    """
    if supply_transform is None:
        return "none"
    try:
        blob = pickle.dumps(supply_transform, protocol=4)
    except Exception:
        return None
    return "pickle-sha256:" + hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class TraceKey:
    """Digest-able description of everything that shapes the current trace.

    Supply parameters are deliberately absent: for a feedback-free
    controller the processor never observes the supply, so one recorded
    trace serves every supply/RLC/detector/response variant of the same
    front end -- that reuse across the design-space axes is the entire
    speedup.  The controller participates only through ``schedule``, a
    token describing its directive schedule (see
    :func:`repro.trace.replay.schedule_token`).
    """

    benchmark: str
    workload: Dict[str, Any]
    seed: Optional[int]
    n_instructions: int
    processor: Dict[str, Any]
    n_cycles: int
    warmup_cycles: int
    schedule: str
    overlay: str
    version: int = STORE_VERSION

    def digest(self) -> str:
        return canonical_digest(dataclasses.asdict(self))


@dataclass
class TracePayload:
    """A decoded, integrity-checked store entry ready for replay."""

    content_sha256: str
    config_digest: str
    n_cycles: int
    warmup_cycles: int
    instructions_warmup: int
    instructions_total: int
    currents: List[float]


class TraceCapture:
    """Accumulates the full (warmup + measured) current trace of one run.

    Attached to a :class:`~repro.sim.simulation.Simulation` as
    ``sim.capture``; the scalar loop and the kernel collect stage feed
    ``currents``, and ``finish`` runs the replayability proof before the
    capture may be persisted: the recorded trace, re-accumulated exactly
    the way the power model accumulates energy, must reproduce the run's
    boundary and end energies bit-for-bit, and the run must carry no
    phantom energy (phantom current is not derivable from the trace).  A
    capture that fails the proof is simply not recorded -- the run's own
    result is unaffected.
    """

    def __init__(self, key: TraceKey):
        self.key = key
        self.currents: List[float] = []
        self.completed = False
        self.instructions_warmup = 0
        self.instructions_total = 0

    def finish(
        self,
        boundary_snapshot: dict,
        end_snapshot: dict,
        vdd_volts: float,
        cycle_seconds: float,
    ) -> bool:
        """Validate the capture against the finished run; returns success."""
        warmup = self.key.warmup_cycles
        n_cycles = self.key.n_cycles
        if len(self.currents) != warmup + n_cycles:
            return False
        if end_snapshot["phantom"] != 0.0:
            return False
        energy = 0.0
        for i, amps in enumerate(self.currents):
            if i == warmup and energy != boundary_snapshot["energy"]:
                return False
            energy += amps * vdd_volts * cycle_seconds
        if energy != end_snapshot["energy"]:
            return False
        self.instructions_warmup = boundary_snapshot["instructions"]
        self.instructions_total = end_snapshot["instructions"]
        self.completed = True
        return True


class TraceStore:
    """Durable content-addressed store with guard-on-load semantics.

    Any load-time problem -- missing object, version or digest mismatch,
    truncation, bit flips, malformed floats -- degrades to a ``None``
    return (caller falls back to full simulation) plus a quarantined file
    and an incident record.  ``stats`` keeps plain-int counters for tests;
    the same counts feed the active obs metrics registry when one is
    installed.
    """

    def __init__(self, root: str, max_cached_payloads: int = 8):
        if max_cached_payloads < 0:
            raise TraceStoreError("max_cached_payloads must be non-negative")
        self.root = str(root)
        self.objects_dir = os.path.join(self.root, "objects")
        self.index_dir = os.path.join(self.root, "index")
        self.max_cached_payloads = max_cached_payloads
        self.stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "guard_failures": 0,
            "fallbacks": 0,
            "records": 0,
        }
        self.incidents: List[dict] = []
        self._cache: Dict[str, TracePayload] = {}
        self._context_label: Optional[str] = None

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _count(self, stat: str, n: int = 1) -> None:
        self.stats[stat] += n
        registry = obs_metrics.active_registry()
        if registry is not None:
            registry.counter(
                f"trace_store_{stat}_total",
                help=f"trace store {stat.replace('_', ' ')}",
            ).inc(n)

    def _incident(self, kind: str, path: str, reason: str) -> None:
        self.incidents.append({
            "error_type": "TraceStoreCorrupt",
            "kind": kind,
            "path": path,
            "reason": reason,
            "benchmark": self._context_label or "trace-store",
        })

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _index_path(self, digest: str) -> str:
        return os.path.join(self.index_dir, f"{digest}.json")

    def _object_path(self, sha: str) -> str:
        return os.path.join(self.objects_dir, f"{sha}.json")

    def contains(self, key: TraceKey) -> bool:
        """Cheap existence probe (no integrity check) for prefetch planning."""
        return os.path.exists(self._index_path(key.digest()))

    # ------------------------------------------------------------------
    # load (guarded)
    # ------------------------------------------------------------------
    def load(
        self, key: TraceKey, label: Optional[str] = None
    ) -> Optional[TracePayload]:
        """Return the recorded trace for ``key``, or ``None`` on any doubt.

        ``label`` (usually the benchmark name) tags any incident this
        load records, so sweep summaries can attribute the fallback.
        """
        self._context_label = label
        digest = key.digest()
        cached = self._cache.get(digest)
        if cached is not None:
            self._count("hits")
            return cached
        index_path = self._index_path(digest)
        try:
            with open(index_path, "r", encoding="utf-8") as fh:
                index = json.load(fh)
        except FileNotFoundError:
            self._count("misses")
            return None
        except (OSError, ValueError) as exc:
            return self._guard_failure(
                "index", index_path, f"unreadable index: {exc}", quarantine=True
            )
        payload = self._validate_index(key, digest, index_path, index)
        if payload is None:
            return None
        self._count("hits")
        if self.max_cached_payloads:
            if len(self._cache) >= self.max_cached_payloads:
                self._cache.pop(next(iter(self._cache)), None)
            self._cache[digest] = payload
        return payload

    def _guard_failure(
        self, kind: str, path: str, reason: str, quarantine: bool = False
    ) -> None:
        self._count("guard_failures")
        self._count("fallbacks")
        self._incident(kind, path, reason)
        if quarantine:
            # Moved aside, never deleted: evidence for forensics.
            with contextlib.suppress(OSError):
                durable.quarantine(path)
        warn_once(
            f"trace store entry rejected ({reason}); falling back "
            f"to full simulation: {path}",
            key=f"trace-store-guard:{path}:{reason}",
        )
        return None

    def _validate_index(
        self, key: TraceKey, digest: str, index_path: str, index
    ) -> Optional[TracePayload]:
        if not isinstance(index, dict):
            return self._guard_failure(
                "index", index_path, "index is not an object", quarantine=True
            )
        if index.get("version") != STORE_VERSION:
            return self._guard_failure(
                "index", index_path,
                f"index version {index.get('version')!r} != {STORE_VERSION}",
                quarantine=True,
            )
        if index.get("config_digest") != digest:
            # The wrong-digest case: an entry filed under this key that
            # claims to describe a different front end.
            return self._guard_failure(
                "index", index_path,
                "config digest mismatch (entry describes a different "
                "front end)",
                quarantine=True,
            )
        sha = index.get("content_sha256")
        if not (isinstance(sha, str) and len(sha) == 64
                and all(c in "0123456789abcdef" for c in sha)):
            return self._guard_failure(
                "index", index_path, "malformed content address",
                quarantine=True,
            )
        object_path = self._object_path(sha)
        try:
            with open(object_path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except FileNotFoundError:
            return self._guard_failure(
                "object", object_path, "content object missing",
            )
        except (OSError, ValueError) as exc:
            return self._guard_failure(
                "object", object_path, f"unreadable object: {exc}",
                quarantine=True,
            )
        return self._validate_object(key, digest, sha, object_path, obj)

    def _validate_object(
        self, key: TraceKey, digest: str, sha: str, object_path: str, obj
    ) -> Optional[TracePayload]:
        if not isinstance(obj, dict) or obj.get("version") != STORE_VERSION:
            return self._guard_failure(
                "object", object_path, "bad object version", quarantine=True
            )
        if obj.get("config_digest") != digest:
            return self._guard_failure(
                "object", object_path,
                "object recorded for a different front end",
                quarantine=True,
            )
        hex_lines = obj.get("currents_hex")
        n_cycles = obj.get("n_cycles")
        warmup = obj.get("warmup_cycles")
        instructions_warmup = obj.get("instructions_warmup")
        instructions_total = obj.get("instructions_total")
        if (not isinstance(hex_lines, list)
                or not all(isinstance(line, str) for line in hex_lines)
                or n_cycles != key.n_cycles
                or warmup != key.warmup_cycles
                or not isinstance(instructions_warmup, int)
                or not isinstance(instructions_total, int)):
            return self._guard_failure(
                "object", object_path, "object metadata malformed",
                quarantine=True,
            )
        if len(hex_lines) != warmup + n_cycles:
            return self._guard_failure(
                "object", object_path,
                f"trace truncated: {len(hex_lines)} samples, "
                f"expected {warmup + n_cycles}",
                quarantine=True,
            )
        recomputed = hashlib.sha256(
            "\n".join(hex_lines).encode("ascii", errors="replace")
        ).hexdigest()
        if recomputed != sha:
            return self._guard_failure(
                "object", object_path,
                "content hash mismatch (bit flip or tamper)",
                quarantine=True,
            )
        try:
            currents = [float.fromhex(line) for line in hex_lines]
        except (TypeError, ValueError) as exc:
            return self._guard_failure(
                "object", object_path, f"malformed sample: {exc}",
                quarantine=True,
            )
        return TracePayload(
            content_sha256=sha,
            config_digest=digest,
            n_cycles=n_cycles,
            warmup_cycles=warmup,
            instructions_warmup=instructions_warmup,
            instructions_total=instructions_total,
            currents=currents,
        )

    # ------------------------------------------------------------------
    # save (durable)
    # ------------------------------------------------------------------
    def save(self, capture: TraceCapture) -> bool:
        """Persist a completed capture; returns whether it is now stored.

        Storage failures are non-fatal by design (the sweep already has
        its full-simulation result); they warn and return ``False``.
        Racing writers of one key (pool workers) are safe: temp names
        carry the pid, and content addressing makes them write identical
        bytes.
        """
        if not capture.completed:
            raise TraceStoreError(
                "refusing to store an unvalidated capture; call "
                "TraceCapture.finish first"
            )
        key = capture.key
        digest = key.digest()
        hex_lines = [float(v).hex() for v in capture.currents]
        sha = hashlib.sha256("\n".join(hex_lines).encode("ascii")).hexdigest()
        obj = {
            "version": STORE_VERSION,
            "config_digest": digest,
            "content_sha256": sha,
            "n_cycles": key.n_cycles,
            "warmup_cycles": key.warmup_cycles,
            "instructions_warmup": capture.instructions_warmup,
            "instructions_total": capture.instructions_total,
            "currents_hex": hex_lines,
        }
        index = {
            "version": STORE_VERSION,
            "config_digest": digest,
            "content_sha256": sha,
            "benchmark": key.benchmark,
            "seed": key.seed,
            "n_cycles": key.n_cycles,
            "warmup_cycles": key.warmup_cycles,
            "schedule": key.schedule,
            "overlay": key.overlay,
        }
        try:
            object_path = self._object_path(sha)
            # Content-addressed objects are immutable: an existing file
            # with this name already holds these bytes.
            if not os.path.exists(object_path):
                durable.atomic_write(object_path, _compact_json(obj))
            durable.atomic_write(self._index_path(digest), _compact_json(index))
        except OSError as exc:
            warn_once(
                f"trace store write failed ({exc}); this cell will "
                f"re-simulate until the store is writable",
                key=f"trace-store-write:{self.root}",
            )
            return False
        self._count("records")
        return True

    # ------------------------------------------------------------------
    # incident draining (for sweep summaries)
    # ------------------------------------------------------------------
    def drain_incidents(self) -> List[dict]:
        drained = self.incidents
        self.incidents = []
        return drained
