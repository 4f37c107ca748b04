"""Durable job records: the service's crash-safe source of truth.

Every job lives in exactly one JSON file, ``<data_dir>/jobs/<id>.json``,
written through the same durable write as sweep checkpoints
(:func:`repro.durable.atomic_write`: temp + fsync + atomic replace +
directory fsync) and self-validated the same way (a ``_meta`` header whose
:func:`repro.durable.content_digest` checksum covers the record).  A file
that fails validation is quarantined as ``<file>.corrupt-<n>`` and
surfaced as an incident -- never silently dropped, never allowed to poison
recovery.

The lifecycle is a small state machine::

    queued -> running -> done | failed
                |-> draining -> cancelled   (client cancel)
                |-> queued                  (service drain / crash adoption)

``running`` and ``draining`` records found on startup mean the previous
process died mid-job; recovery re-adopts them back to ``queued`` (bumping
``adoptions``) and the sweep resumes from its own checkpoint, so a
``kill -9`` costs at most the in-flight cell.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.durable import atomic_write, content_digest, quarantine
from repro.errors import JobStateError, ServeError

__all__ = [
    "JobRecord",
    "JobStore",
    "STATES",
    "TERMINAL_STATES",
    "new_job_id",
]

_RECORD_VERSION = 1

STATES = ("queued", "running", "draining", "done", "failed", "cancelled")
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Legal state transitions; adoption (running/draining -> queued) is
#: included because a crash can interrupt either active state.
_TRANSITIONS = {
    "queued": {"running", "cancelled", "failed"},
    "running": {"draining", "done", "failed", "cancelled", "queued"},
    "draining": {"cancelled", "done", "failed", "queued"},
    "done": set(),
    "failed": set(),
    "cancelled": set(),
}


def new_job_id() -> str:
    """Opaque, URL-safe job identifier."""
    return f"job-{uuid.uuid4().hex[:16]}"


@dataclass
class JobRecord:
    """One job's durable state (everything ``jobs/<id>.json`` holds)."""

    job_id: str
    tenant: str
    spec: dict
    state: str = "queued"
    idempotency_key: Optional[str] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: times this record was re-adopted from running/draining at startup
    adoptions: int = 0
    cancel_requested: bool = False
    #: completed / failed cell counts, updated in memory while running and
    #: persisted at every state transition (cell-level durability is the
    #: sweep checkpoint's job, not this record's)
    completed_cells: int = 0
    failed_cells: int = 0
    total_cells: int = 0
    result: Optional[dict] = None
    error: Optional[dict] = None
    #: trace-context triple (trace_id/span_id/parent_id) rooted at
    #: submission, so adopted jobs keep their ids across restarts; None
    #: when the submit was untraced
    trace: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "spec": self.spec,
            "state": self.state,
            "idempotency_key": self.idempotency_key,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "adoptions": self.adoptions,
            "cancel_requested": self.cancel_requested,
            "completed_cells": self.completed_cells,
            "failed_cells": self.failed_cells,
            "total_cells": self.total_cells,
            "result": self.result,
            "error": self.error,
            "trace": self.trace,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        return cls(**{key: data.get(key) for key in (
            "job_id", "tenant", "spec", "state", "idempotency_key",
            "submitted_at", "started_at", "finished_at", "adoptions",
            "cancel_requested", "completed_cells", "failed_cells",
            "total_cells", "result", "error", "trace",
        )})

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


class JobStore:
    """Crash-safe persistence and recovery for :class:`JobRecord`.

    Thread-safe: the service mutates records from the event loop and from
    job threads; one lock serialises every read-modify-write-persist.
    """

    def __init__(self, data_dir: str):
        self.data_dir = data_dir
        self.jobs_dir = os.path.join(data_dir, "jobs")
        self.work_dir = os.path.join(data_dir, "work")
        try:
            os.makedirs(self.jobs_dir, exist_ok=True)
            os.makedirs(self.work_dir, exist_ok=True)
        except OSError as error:
            raise ServeError(
                f"cannot create job store under {data_dir!r}: {error}"
            ) from error
        self._lock = threading.RLock()
        self._records: Dict[str, JobRecord] = {}
        #: (tenant, idempotency key) -> job_id; includes terminal jobs so a
        #: late client retry still gets its original submission back
        self._idempotency: Dict[tuple, str] = {}
        #: quarantined record files found during recovery
        self.corrupt_files: List[str] = []

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def record_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.json")

    def checkpoint_path(self, job_id: str) -> str:
        """The sweep checkpoint this job resumes from after a crash."""
        return os.path.join(self.work_dir, job_id, "checkpoint.json")

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def _persist(self, record: JobRecord) -> None:
        body = record.to_dict()
        payload = {
            "_meta": {
                "checksum": content_digest(body),
                "version": _RECORD_VERSION,
            },
            "record": body,
        }
        atomic_write(
            self.record_path(record.job_id),
            json.dumps(payload, indent=0, sort_keys=True),
        )

    @staticmethod
    def _validate(payload: object) -> Optional[dict]:
        """The record dict if the file is intact, else None."""
        if not isinstance(payload, dict):
            return None
        meta = payload.get("_meta")
        body = payload.get("record")
        if not isinstance(meta, dict) or not isinstance(body, dict):
            return None
        if meta.get("version") != _RECORD_VERSION:
            return None
        if meta.get("checksum") != content_digest(body):
            return None
        if body.get("state") not in STATES:
            return None
        if not isinstance(body.get("job_id"), str):
            return None
        return body

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> List[JobRecord]:
        """Load every record; re-adopt in-flight jobs; return adoptions.

        Corrupt files are quarantined (``.corrupt-<n>``), listed on
        :attr:`corrupt_files`, and skipped -- one rotten record must not
        take down recovery of the rest.
        """
        adopted: List[JobRecord] = []
        with self._lock:
            for entry in sorted(os.listdir(self.jobs_dir)):
                if not entry.endswith(".json"):
                    continue
                path = os.path.join(self.jobs_dir, entry)
                try:
                    with open(path) as handle:
                        payload = json.load(handle)
                except (OSError, ValueError):
                    payload = None
                body = self._validate(payload)
                if body is None or body["job_id"] != entry[:-len(".json")]:
                    self.corrupt_files.append(quarantine(path))
                    continue
                record = JobRecord.from_dict(body)
                if record.state in ("running", "draining"):
                    # The previous process died holding this job; hand it
                    # back to the queue and let the sweep checkpoint pay
                    # for the progress already made.
                    record.state = "queued"
                    record.started_at = None
                    record.adoptions += 1
                    self._persist(record)
                    adopted.append(record)
                self._records[record.job_id] = record
                if record.idempotency_key is not None:
                    self._idempotency[
                        (record.tenant, record.idempotency_key)
                    ] = record.job_id
        return adopted

    # ------------------------------------------------------------------
    # CRUD under the lock
    # ------------------------------------------------------------------
    def create(
        self,
        tenant: str,
        spec: dict,
        total_cells: int,
        idempotency_key: Optional[str] = None,
        now: Optional[float] = None,
    ) -> JobRecord:
        with self._lock:
            record = JobRecord(
                job_id=new_job_id(),
                tenant=tenant,
                spec=spec,
                idempotency_key=idempotency_key,
                submitted_at=time.time() if now is None else now,
                total_cells=total_cells,
            )
            self._persist(record)
            self._records[record.job_id] = record
            if idempotency_key is not None:
                self._idempotency[(tenant, idempotency_key)] = record.job_id
            return record

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._records.get(job_id)

    def find_idempotent(
        self, tenant: str, idempotency_key: str
    ) -> Optional[JobRecord]:
        with self._lock:
            job_id = self._idempotency.get((tenant, idempotency_key))
            return self._records.get(job_id) if job_id else None

    def list_records(self) -> List[JobRecord]:
        with self._lock:
            return sorted(
                self._records.values(),
                key=lambda r: (r.submitted_at, r.job_id),
            )

    def transition(
        self,
        job_id: str,
        state: str,
        mutate: Optional[Callable[[JobRecord], None]] = None,
    ) -> JobRecord:
        """Atomically move a job to ``state`` (persisting the record).

        ``mutate`` runs under the lock before persistence, for updates
        that must land in the same durable write as the state change
        (result, error, timestamps).
        """
        if state not in STATES:
            raise ServeError(f"unknown job state {state!r}")
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise JobStateError(f"unknown job {job_id!r}")
            if state != record.state:
                if state not in _TRANSITIONS[record.state]:
                    raise JobStateError(
                        f"job {job_id} cannot move"
                        f" {record.state!r} -> {state!r}"
                    )
                record.state = state
            if mutate is not None:
                mutate(record)
            self._persist(record)
            return record

    def update(
        self, job_id: str, mutate: Callable[[JobRecord], None]
    ) -> JobRecord:
        """Persist a non-state mutation (progress counters, flags)."""
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise JobStateError(f"unknown job {job_id!r}")
            mutate(record)
            self._persist(record)
            return record
