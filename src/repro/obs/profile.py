"""Stdlib-only sampling profiler with speedscope and collapsed output.

A timer thread wakes every ``interval_s`` and snapshots the Python stacks
of every other thread via ``sys._current_frames``, aggregating counts per
``(label, stack)`` pair.  The label is a per-thread attribution string —
the sweep runner labels each cell ``<benchmark>|<technique>|<seed>`` so
the profile answers "which cell burned the samples", rendered as a
synthetic ``[cell ...]`` root frame in the speedscope view.

Like the tracer and the metrics registry, the profiler is off by default:
``active_profiler()`` is a module global that stays ``None`` until
``repro.obs.configure(profile_out=...)`` installs one, so the disabled
path costs one attribute read at each seam.  Sampling only *reads*
frames, so profiled sweeps stay bit-identical to unprofiled ones — the
goldens and chaos convergence checks hold with ``--profile-out`` on.

Multi-process sweeps mirror the trace-shard design: each worker runs its
own profiler and rewrites a cumulative JSON shard under
``<profile_out>.shards/`` at every cell boundary (so a SIGKILLed worker
loses at most its in-flight cell), and the parent merges the shards into
one multi-profile speedscope file plus a collapsed-stack sibling at
finalize time.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import threading
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "SamplingProfiler",
    "active_profiler",
    "set_active_profiler",
    "merge_profiles",
    "write_speedscope",
    "write_collapsed",
]

_MAX_DEPTH = 64

#: (label, (frame, ...)) -> sample count; frames are "func (file:line)"
#: ordered root -> leaf.
Samples = Dict[Tuple[str, Tuple[str, ...]], int]


def _format_frame(frame) -> str:
    code = frame.f_code
    return f"{code.co_name} ({os.path.basename(code.co_filename)}:{frame.f_lineno})"


def _extract_stack(frame) -> Tuple[str, ...]:
    stack: List[str] = []
    while frame is not None and len(stack) < _MAX_DEPTH:
        stack.append(_format_frame(frame))
        frame = frame.f_back
    stack.reverse()
    return tuple(stack)


class SamplingProfiler:
    """Timer-driven stack sampler for every thread of this process."""

    def __init__(
        self,
        interval_s: float = 0.005,
        process_label: str = "sweep",
        shard_path: Optional[str] = None,
    ):
        self._interval_s = max(interval_s, 0.001)
        self.process_label = process_label
        self._shard_path = shard_path
        self._lock = threading.Lock()
        self._samples: Samples = {}
        self._labels: Dict[int, str] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._sample_loop, name="obs-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=2.0)
        self._thread = None

    def _sample_loop(self) -> None:
        self_tid = threading.get_ident()
        while not self._stop.wait(self._interval_s):
            frames = sys._current_frames()
            with self._lock:
                for tid, frame in frames.items():
                    if tid == self_tid:
                        continue
                    key = (self._labels.get(tid, "-"), _extract_stack(frame))
                    self._samples[key] = self._samples.get(key, 0) + 1

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def attribute(self, label: str) -> Iterator[None]:
        """Attribute this thread's samples to ``label`` for the block."""
        tid = threading.get_ident()
        with self._lock:
            previous = self._labels.get(tid)
            self._labels[tid] = label
        try:
            yield
        finally:
            with self._lock:
                if previous is None:
                    self._labels.pop(tid, None)
                else:
                    self._labels[tid] = previous

    # ------------------------------------------------------------------
    def snapshot(self) -> Samples:
        with self._lock:
            return dict(self._samples)

    def sample_count(self) -> int:
        with self._lock:
            return sum(self._samples.values())

    def flush_shard(self) -> None:
        """Rewrite this process's cumulative shard (worker processes)."""
        if self._shard_path is None:
            return
        payload = {
            "pid": os.getpid(),
            "label": self.process_label,
            "samples": [
                [label, list(stack), count]
                for (label, stack), count in sorted(self.snapshot().items())
            ],
        }
        os.makedirs(os.path.dirname(self._shard_path), exist_ok=True)
        tmp = self._shard_path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        os.replace(tmp, self._shard_path)


#: Process-wide profiler; None until configure(profile_out=...) runs.
_ACTIVE: Optional[SamplingProfiler] = None


def active_profiler() -> Optional[SamplingProfiler]:
    return _ACTIVE


def set_active_profiler(profiler: Optional[SamplingProfiler]) -> None:
    global _ACTIVE
    _ACTIVE = profiler


# ----------------------------------------------------------------------
# Shard merge and output formats
# ----------------------------------------------------------------------

def _load_shard(path: str) -> Optional[dict]:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None  # torn shard of a killed worker: drop, don't poison
    if not isinstance(data, dict) or "samples" not in data:
        return None
    return data


def merge_profiles(
    own: Optional[SamplingProfiler], shard_dir: str
) -> List[dict]:
    """Per-process sample sets: the local profiler plus worker shards."""
    processes: List[dict] = []
    if own is not None:
        processes.append({
            "pid": os.getpid(),
            "label": own.process_label,
            "samples": [
                [label, list(stack), count]
                for (label, stack), count in sorted(own.snapshot().items())
            ],
        })
    if os.path.isdir(shard_dir):
        for entry in sorted(os.listdir(shard_dir)):
            if not entry.endswith(".json"):
                continue
            shard = _load_shard(os.path.join(shard_dir, entry))
            if shard is not None:
                processes.append(shard)
    return processes


def _speedscope_payload(processes: List[dict]) -> dict:
    frame_index: Dict[Tuple[str, str, int], int] = {}
    frames: List[dict] = []

    def intern(name: str, file: str = "", line: int = 0) -> int:
        key = (name, file, line)
        if key not in frame_index:
            frame_index[key] = len(frames)
            entry: dict = {"name": name}
            if file:
                entry["file"] = file
            if line:
                entry["line"] = line
            frames.append(entry)
        return frame_index[key]

    profiles = []
    for proc in processes:
        samples: List[List[int]] = []
        weights: List[int] = []
        for label, stack, count in proc.get("samples", []):
            indices: List[int] = []
            if label and label != "-":
                indices.append(intern(f"[cell {label}]"))
            for frame in stack:
                indices.append(intern(str(frame)))
            samples.append(indices)
            weights.append(int(count))
        total = sum(weights)
        profiles.append({
            "type": "sampled",
            "name": f"{proc.get('label', 'proc')} [{proc.get('pid', '?')}]",
            "unit": "none",
            "startValue": 0,
            "endValue": total,
            "samples": samples,
            "weights": weights,
        })
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "exporter": "repro.obs.profile",
        "shared": {"frames": frames},
        "profiles": profiles,
    }


def write_speedscope(path: str, processes: List[dict]) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(_speedscope_payload(processes), handle,
                  separators=(",", ":"))
        handle.write("\n")


def write_collapsed(path: str, processes: List[dict]) -> None:
    """Brendan-Gregg collapsed stacks: ``frame;frame;... count`` lines."""
    merged: Dict[str, int] = {}
    for proc in processes:
        for label, stack, count in proc.get("samples", []):
            parts = list(stack)
            if label and label != "-":
                parts.insert(0, f"[cell {label}]")
            key = ";".join(parts)
            merged[key] = merged.get(key, 0) + int(count)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        for key in sorted(merged):
            handle.write(f"{key} {merged[key]}\n")
