"""Content-addressed per-cycle current-trace store (ROADMAP item 2).

The design-space sweeps explore detector thresholds, response policies and
supply RLC variants -- but for the base processor (no noise control) the
per-cycle current trace is a pure function of the *front end*: workload
profile, seed, instruction budget, processor config, cycle counts and any
supply overlay that perturbs what the processor sees.  This module
captures that trace once per front-end key and lets later cells replay
it, following the record / guard / fallback speculation idiom: record on
the first (training) run, guard on a digest of the front-end-relevant
config at reuse, and fall back to full simulation on any mismatch -- a
guard miss costs time, never correctness.

A command's :class:`~repro.sim.runner.Session` holds one store, or none
(record/replay off); pool workers open their own store on its root.

Layout of a store rooted at ``root/``::

    root/objects/<content_sha256>.json   {"blob": <base64>, "version": 2};
                                         the blob is the instruction counts
                                         at the warmup boundary and at the
                                         end (two little-endian int64s),
                                         then one little-endian float64
                                         current per cycle, and the file is
                                         named by the SHA-256 of the blob
    root/index/<config_digest>.json      front-end key digest -> content
                                         address, cycle counts and the
                                         key's readable fields

An object is pure content: every per-key field lives in the index, so
keys that record the same trace share one object without disagreeing
about it.

Writes go through :func:`repro.durable.atomic_write` (pid-suffixed temp
file in the target directory, fsync, atomic ``os.replace``, directory
fsync).  Corrupt or mismatched entries are moved aside by
:func:`repro.durable.quarantine` to ``<file>.corrupt-<n>`` and reported as
incidents; the caller then re-simulates and (on success) re-records.
Nothing in here imports the simulator -- the replay side lives in
:mod:`repro.trace.replay`.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

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
    "energy_ledger",
    "overlay_token",
]

#: Bump on any change to the key schema or payload encoding.  The key
#: digest includes the version, so entries of another version sit under
#: other index names and are never looked up.
STORE_VERSION = 2

#: Blob layout: two instruction counts, then the per-cycle currents.
_COUNT = np.dtype("<i8")
_SAMPLE = np.dtype("<f8")
_HEADER_BYTES = 2 * _COUNT.itemsize


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


def energy_ledger(
    currents: Sequence[float],
    warmup: int,
    vdd_volts: float,
    cycle_seconds: float,
) -> Tuple[float, float]:
    """Energy after the first ``warmup`` samples and after all of them.

    Bit-identical to the power model's per-cycle ``energy += amps * vdd *
    cycle_seconds`` from zero, in trace order: the products are formed
    elementwise in the same order, and ``np.cumsum`` adds strictly left to
    right, starting from the same ``0.0``.
    """
    ledger = np.cumsum(np.concatenate((
        [0.0], np.asarray(currents, dtype=float) * vdd_volts * cycle_seconds
    )))
    return float(ledger[warmup]), float(ledger[-1])


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

    Supply parameters are deliberately absent: without noise control the
    processor never observes the supply, so one recorded trace serves
    every supply/RLC/detector/response variant of the same front end --
    that reuse across the design-space axes is the entire speedup.  Only
    the base processor's runs are recorded, so ``schedule`` -- the token
    naming the controller's directive schedule -- is always ``"null"``;
    the field stays so that store digests do not move.
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
    """A decoded, integrity-checked trace ready for replay.

    ``currents`` is a read-only float64 array of the warmup and measured
    samples; ``content_sha256`` is the SHA-256 of the encoded blob.
    """

    content_sha256: str
    n_cycles: int
    warmup_cycles: int
    instructions_warmup: int
    instructions_total: int
    currents: np.ndarray

    @classmethod
    def from_capture(cls, capture: "TraceCapture") -> "TracePayload":
        """What a store load of ``capture`` returns, without the disk."""
        blob = _encode(capture)
        return _decode(blob, hashlib.sha256(blob).hexdigest(), capture.key)


def _encode(capture: "TraceCapture") -> bytes:
    counts = np.array(
        [capture.instructions_warmup, capture.instructions_total], _COUNT
    )
    return counts.tobytes() + np.asarray(capture.currents, _SAMPLE).tobytes()


def _decode(blob: bytes, sha: str, key: TraceKey) -> TracePayload:
    instructions_warmup, instructions_total = np.frombuffer(
        blob, _COUNT, count=2
    ).tolist()
    return TracePayload(
        content_sha256=sha,
        n_cycles=key.n_cycles,
        warmup_cycles=key.warmup_cycles,
        instructions_warmup=instructions_warmup,
        instructions_total=instructions_total,
        currents=np.frombuffer(blob, _SAMPLE, offset=_HEADER_BYTES),
    )


class TraceCapture:
    """Accumulates the full (warmup + measured) current trace of one run.

    Attached to a base run's :class:`~repro.sim.simulation.Simulation` as
    ``sim.capture``; the open loop's current stage feeds ``currents``,
    and ``finish`` runs the replayability proof before the
    capture may be persisted: the recorded trace, re-accumulated by
    :func:`energy_ledger`, must reproduce the run's boundary and end
    energies bit-for-bit, and the run must carry no phantom energy
    (phantom current is not derivable from the trace).  A capture that
    fails the proof is simply not recorded -- the run's own result is
    unaffected.
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
        if len(self.currents) != warmup + self.key.n_cycles:
            return False
        if end_snapshot["phantom"] != 0.0:
            return False
        boundary, end = energy_ledger(
            self.currents, warmup, vdd_volts, cycle_seconds
        )
        if boundary != boundary_snapshot["energy"] \
                or end != end_snapshot["energy"]:
            return False
        self.instructions_warmup = boundary_snapshot["instructions"]
        self.instructions_total = end_snapshot["instructions"]
        self.completed = True
        return True


class TraceStore:
    """Durable content-addressed store with guard-on-load semantics.

    Any load-time problem -- missing object, version or digest mismatch,
    truncation, bit flips, a malformed encoding -- degrades to a ``None``
    return (caller falls back to full simulation) plus a quarantined file
    and an incident record.  ``stats`` keeps plain-int counters for tests;
    the same counts feed the active obs metrics registry when one is
    installed.
    """

    def __init__(self, root: str):
        self.root = str(root)
        self.objects_dir = os.path.join(self.root, "objects")
        self.index_dir = os.path.join(self.root, "index")
        self.stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "guard_failures": 0,
            "fallbacks": 0,
            "records": 0,
        }
        self.incidents: List[dict] = []
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
        if payload is not None:
            self._count("hits")
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
        def reject(reason: str) -> None:
            return self._guard_failure(
                "index", index_path, reason, quarantine=True
            )

        if not isinstance(index, dict):
            return reject("index is not an object")
        if index.get("version") != STORE_VERSION:
            return reject(
                f"index version {index.get('version')!r} != {STORE_VERSION}"
            )
        if index.get("config_digest") != digest:
            # The wrong-digest case: an entry filed under this key that
            # claims to describe a different front end.
            return reject(
                "config digest mismatch (entry describes a different "
                "front end)"
            )
        sha = index.get("content_sha256")
        if not (isinstance(sha, str) and len(sha) == 64
                and all(c in "0123456789abcdef" for c in sha)):
            return reject("malformed content address")
        if (index.get("n_cycles") != key.n_cycles
                or index.get("warmup_cycles") != key.warmup_cycles):
            return reject("cycle counts do not match the key")
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
        return self._validate_object(key, sha, object_path, obj)

    def _validate_object(
        self, key: TraceKey, sha: str, object_path: str, obj
    ) -> Optional[TracePayload]:
        def reject(reason: str) -> None:
            return self._guard_failure(
                "object", object_path, reason, quarantine=True
            )

        if not isinstance(obj, dict) or obj.get("version") != STORE_VERSION:
            return reject("bad object version")
        try:
            blob = base64.b64decode(obj.get("blob"), validate=True)
        except (TypeError, ValueError) as exc:
            return reject(f"malformed sample encoding: {exc}")
        expected = _HEADER_BYTES + _SAMPLE.itemsize * (
            key.warmup_cycles + key.n_cycles
        )
        if len(blob) != expected:
            return reject(
                f"trace truncated: {len(blob)} bytes, expected {expected}"
            )
        if hashlib.sha256(blob).hexdigest() != sha:
            return reject("content hash mismatch (bit flip or tamper)")
        return _decode(blob, sha, key)

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
        blob = _encode(capture)
        sha = hashlib.sha256(blob).hexdigest()
        obj = {
            "version": STORE_VERSION,
            "blob": base64.b64encode(blob).decode("ascii"),
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
