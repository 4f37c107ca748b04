"""Process-level chaos injectors for the sweep supervision layer.

Where :mod:`repro.faults.models` lies to the *sensors*, this module
attacks the *harness*: supply transforms that SIGKILL or hang the worker
process running a chosen benchmark, file mutilators that truncate or
bit-flip a checkpoint between runs, and an fsync fault injector that
simulates a full or dying disk under every durable write
(:mod:`repro.durable`: checkpoints, trace store, job records).

Everything here is a plain module-level class or function, so the supply
transforms pickle by qualified name and survive the trip into pool
workers under any multiprocessing start method.  One-shot injectors
coordinate across processes through an exclusive-create marker file:
exactly one process performs the sabotage, every later encounter runs
clean -- which is what lets the chaos harness assert that a disturbed
sweep still converges to byte-identical aggregates.

Used by ``tools/chaos.py`` and ``tests/test_chaos.py``; see
``docs/robustness.md``.
"""

from __future__ import annotations

import contextlib
import errno
import os
import signal
import time
from typing import Callable, Optional

__all__ = [
    "KillWorkerOnce",
    "HangOnce",
    "HangAlways",
    "truncate_file",
    "flip_bit",
    "inject_fsync_faults",
]


class _SabotagedSupply:
    """Supply proxy that triggers ``action`` once, ``after_cycles`` in."""

    def __init__(self, supply, action: Callable[[], None], after_cycles: int):
        self._supply = supply
        self._action = action
        self._after_cycles = after_cycles
        self._cycles = 0

    def step(self, cpu_current):
        self._cycles += 1
        if self._cycles == self._after_cycles:
            self._action()
        return self._supply.step(cpu_current)

    def __getattr__(self, name):
        return getattr(self._supply, name)


class _OneShotSabotage:
    """Supply transform targeting one benchmark, armed by a marker file.

    The marker is created with ``O_EXCL`` immediately before the sabotage
    fires, so across any number of worker processes exactly one run of
    ``benchmark`` is disturbed; requeued or retried runs find the marker
    and proceed clean.
    """

    def __init__(self, marker_path: str, benchmark: str,
                 after_cycles: int = 400):
        self.marker_path = marker_path
        self.benchmark = benchmark
        self.after_cycles = after_cycles

    def _arm(self) -> bool:
        try:
            fd = os.open(
                self.marker_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def _sabotage(self) -> None:  # pragma: no cover - subclass hook
        raise NotImplementedError

    def _fire(self) -> None:
        if self._arm():
            self._sabotage()

    def __call__(self, supply, benchmark: str):
        if benchmark != self.benchmark:
            return supply
        return _SabotagedSupply(supply, self._fire, self.after_cycles)


class KillWorkerOnce(_OneShotSabotage):
    """SIGKILL the process running ``benchmark``, exactly once.

    In a parallel sweep this simulates an OOM kill mid-cell: the pool
    breaks, the supervisor rebuilds it and requeues the cell, and the
    requeued run (marker present) completes normally.  Never mount this
    on a sequential sweep -- the "worker" would be the parent itself.
    """

    def _sabotage(self) -> None:
        os.kill(os.getpid(), signal.SIGKILL)


class HangOnce(_OneShotSabotage):
    """Stall the first run of ``benchmark`` far past any stale threshold."""

    def __init__(self, marker_path: str, benchmark: str,
                 after_cycles: int = 400, sleep_s: float = 3600.0):
        super().__init__(marker_path, benchmark, after_cycles)
        self.sleep_s = sleep_s

    def _sabotage(self) -> None:
        time.sleep(self.sleep_s)


class HangAlways:
    """Stall *every* run of ``benchmark`` (a deterministically hung cell)."""

    def __init__(self, benchmark: str, after_cycles: int = 400,
                 sleep_s: float = 3600.0):
        self.benchmark = benchmark
        self.after_cycles = after_cycles
        self.sleep_s = sleep_s

    def __call__(self, supply, benchmark: str):
        if benchmark != self.benchmark:
            return supply
        return _SabotagedSupply(
            supply, lambda: time.sleep(self.sleep_s), self.after_cycles
        )


def truncate_file(path: str, keep_fraction: float) -> int:
    """Cut a file to ``keep_fraction`` of its bytes; returns the new size."""
    size = os.path.getsize(path)
    keep = max(0, min(size, int(size * keep_fraction)))
    with open(path, "rb+") as handle:
        handle.truncate(keep)
    return keep


def flip_bit(path: str, offset: Optional[int] = None, bit: int = 0) -> int:
    """Flip one bit of a file in place; returns the byte offset flipped."""
    with open(path, "rb+") as handle:
        data = handle.read()
        if not data:
            return 0
        at = (offset if offset is not None else len(data) // 2) % len(data)
        handle.seek(at)
        handle.write(bytes([data[at] ^ (1 << (bit % 8))]))
    return at


@contextlib.contextmanager
def inject_fsync_faults(every: int = 2, error_number: int = errno.ENOSPC):
    """Make every ``every``-th durable fsync raise an injected OSError.

    Patches the fsync seam of :mod:`repro.durable` for the duration of
    the context, so checkpoint, trace-store and job-record writes all see
    the faults (ENOSPC by default -- a full disk -- or any errno, e.g.
    ``errno.EIO``).  Yields a counter dict: ``calls`` fsyncs attempted,
    ``faults`` injected.
    """
    from repro import durable

    if every < 1:
        raise ValueError("every must be >= 1")
    original = durable._fsync
    counter = {"calls": 0, "faults": 0}

    def faulty_fsync(fd):
        counter["calls"] += 1
        if counter["calls"] % every == 0:
            counter["faults"] += 1
            raise OSError(error_number, f"{os.strerror(error_number)} (injected)")
        return original(fd)

    durable._fsync = faulty_fsync
    try:
        yield counter
    finally:
        durable._fsync = original
