"""Span tracing with a Perfetto-compatible Chrome trace-event export.

Every traced process -- the sweep parent and each pool worker -- owns one
:class:`Tracer` appending JSON-lines events to its *own* shard file under
``<trace_out>.shards/``.  No file handle or lock ever crosses a process
boundary, which makes the sink process-safe by construction; within a
process a lock serializes writers, so worker heartbeat threads and the
supervisor can trace concurrently.

Events are Chrome trace-event dictionaries from the moment they are
written: complete spans (``ph: "X"`` with microsecond ``ts``/``dur`` from
``time.monotonic``, which shares its epoch across processes on Linux) and
instant events (``ph: "i"``).  :func:`export_chrome_trace` merges the
shards into one ``{"traceEvents": [...]}`` JSON file that loads directly
in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

Determinism: event ids are per-process sequence numbers (no ``id()`` or
randomness), the merged file is sorted by ``(ts, pid, tid, seq)``, and a
truncated shard line (a worker killed mid-write) is skipped rather than
poisoning the export.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Tracer",
    "active_tracer",
    "set_active_tracer",
    "shard_dir_for",
    "cleanup_shards",
    "export_chrome_trace",
    "load_trace",
    "load_trace_events",
]

#: Categories used by the built-in instrumentation (documented in
#: docs/observability.md): phase/cell/simulation spans, supervision
#: instants, and cross-process flow arrows.
CAT_PHASE = "phase"
CAT_CELL = "cell"
CAT_SIM = "sim"
CAT_SUPERVISION = "supervision"
CAT_FLOW = "flow"


def shard_dir_for(path: str) -> str:
    """Directory holding the per-process shards of one trace or profile."""
    return path + ".shards"


def cleanup_shards(shard_dir: str) -> None:
    """Remove a shard directory and its shards, if it exists."""
    shutil.rmtree(shard_dir, ignore_errors=True)


class Tracer:
    """Appends Chrome trace events to this process's JSONL shard."""

    def __init__(self, shard_dir: str, process_label: str = "repro"):
        self._shard_dir = shard_dir
        self._process_label = process_label
        self._lock = threading.Lock()
        self._handle = None
        self._pid = os.getpid()
        self._seq = 0

    # ------------------------------------------------------------------
    def _write(self, event: dict) -> None:
        with self._lock:
            if self._pid != os.getpid():  # forked child: never share a handle
                self._handle = None
                self._pid = os.getpid()
                self._seq = 0
            if self._handle is None:
                os.makedirs(self._shard_dir, exist_ok=True)
                path = os.path.join(self._shard_dir, f"pid-{self._pid}.jsonl")
                self._handle = open(path, "a")
                self._emit_locked({
                    "ph": "M", "name": "process_name", "ts": 0, "dur": 0,
                    "args": {"name": f"{self._process_label} [{self._pid}]"},
                })
            self._emit_locked(event)

    def _emit_locked(self, event: dict) -> None:
        event["pid"] = self._pid
        event["tid"] = threading.get_ident() % 1_000_000
        event["seq"] = self._seq
        self._seq += 1
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None and self._pid == os.getpid():
                with contextlib.suppress(OSError):
                    self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def span(
        self,
        name: str,
        cat: str = CAT_PHASE,
        args: Optional[dict] = None,
        ctx=None,
    ) -> Iterator[dict]:
        """Record a complete span around the enclosed block.

        Yields the mutable ``args`` dict, so the block can attach results
        (attempt counts, outcome) that are only known at exit.  A
        ``TraceContext`` passed as ``ctx`` stamps its deterministic
        trace_id/span_id/parent_id triple into the args.
        """
        span_args: dict = dict(args or {})
        if ctx is not None:
            span_args.update(ctx.span_args())
        started = time.monotonic()
        try:
            yield span_args
        finally:
            duration = time.monotonic() - started
            self._write({
                "ph": "X",
                "name": name,
                "cat": cat,
                "ts": round(started * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "args": span_args,
            })

    def flow_start(self, flow_id: str, name: str = "dispatch") -> None:
        """Open a flow arrow at the dispatch site (inside the open span)."""
        self._write({
            "ph": "s",
            "name": name,
            "cat": CAT_FLOW,
            "id": flow_id,
            "ts": round(time.monotonic() * 1e6, 3),
            "args": {},
        })

    def flow_end(self, flow_id: str, name: str = "dispatch") -> None:
        """Close a flow arrow inside the receiving span (other process)."""
        self._write({
            "ph": "f",
            "bp": "e",
            "name": name,
            "cat": CAT_FLOW,
            "id": flow_id,
            "ts": round(time.monotonic() * 1e6, 3),
            "args": {},
        })

    def instant(
        self, name: str, cat: str = CAT_SUPERVISION, args: Optional[dict] = None
    ) -> None:
        """Record a zero-duration marker (retry, kill, rebuild, drain...)."""
        self._write({
            "ph": "i",
            "name": name,
            "cat": cat,
            "ts": round(time.monotonic() * 1e6, 3),
            "s": "p",  # process scope: draw across the whole track group
            "args": dict(args or {}),
        })


#: Process-wide tracer; None until observability is configured, so the
#: disabled path costs one module-attribute read at each seam.
_ACTIVE: Optional[Tracer] = None


def active_tracer() -> Optional[Tracer]:
    return _ACTIVE


def set_active_tracer(tracer: Optional[Tracer]) -> None:
    global _ACTIVE
    _ACTIVE = tracer


# ----------------------------------------------------------------------
# Shard merge and export
# ----------------------------------------------------------------------

def _read_shard(path: str) -> List[dict]:
    events = []
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except ValueError:
                    continue  # truncated tail of a killed worker
                if isinstance(event, dict):
                    events.append(event)
    except OSError:
        return []
    return events


def merge_shards(shard_dir: str) -> List[dict]:
    """All events from every shard, in deterministic order."""
    events: List[dict] = []
    if os.path.isdir(shard_dir):
        for entry in sorted(os.listdir(shard_dir)):
            if entry.endswith(".jsonl"):
                events.extend(_read_shard(os.path.join(shard_dir, entry)))
    events.sort(
        key=lambda e: (
            e.get("ts", 0), e.get("pid", 0), e.get("tid", 0), e.get("seq", 0)
        )
    )
    return events


def export_chrome_trace(
    trace_path: str,
    metadata: Optional[Dict[str, object]] = None,
) -> int:
    """Merge the shards of ``trace_path`` into the final Chrome JSON.

    Returns the number of events exported.  The shard directory is
    removed afterwards so reruns start clean.
    """
    shard_dir = shard_dir_for(trace_path)
    events = merge_shards(shard_dir)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }
    directory = os.path.dirname(trace_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(trace_path, "w") as handle:
        json.dump(payload, handle, indent=None, separators=(",", ":"))
        handle.write("\n")
    cleanup_shards(shard_dir)
    return len(events)


def load_trace(path: str) -> Tuple[List[dict], dict]:
    """Events and run metadata (``otherData``) of an exported trace, in
    the object or bare-array Chrome format."""
    with open(path) as handle:
        data = json.load(handle)
    metadata: dict = {}
    if isinstance(data, dict):
        events = data.get("traceEvents", [])
        metadata = data.get("otherData") or {}
    elif isinstance(data, list):
        events = data
    else:
        raise ValueError(f"{path!r} is not a Chrome trace file")
    return [e for e in events if isinstance(e, dict)], metadata


def load_trace_events(path: str) -> List[dict]:
    """Events of an exported trace (object or bare-array Chrome format)."""
    return load_trace(path)[0]
