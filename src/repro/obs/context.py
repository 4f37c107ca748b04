"""Deterministic trace-context propagation across process boundaries.

A :class:`TraceContext` names one node in a causal tree: a ``trace_id``
shared by every span of one logical operation (a sweep), a ``span_id``
for this node, and the ``parent_id`` it hangs under.  Ids are *derived*,
not random: ``sha256`` over the parent ids and a stable name, so a
fixed-seed sweep produces byte-identical linkage on every run and on
every backend.  That determinism is what lets the goldens and the chaos
convergence checks stay bit-exact with tracing enabled.

Contexts cross process boundaries as plain dicts -- in the pool worker
cell submission -- and are re-installed on the far side with
:func:`use_context`.  The current context is thread-local, so a sweep
run off the main thread neither sees nor replaces the context of a
sweep on another thread, and the sampling profiler's thread never
inherits one.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
from dataclasses import dataclass
from typing import Iterator, Optional


def _derive(material: str, length: int) -> str:
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:length]


@dataclass(frozen=True)
class TraceContext:
    """One node of a causal trace tree, with deterministic ids."""

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None

    @classmethod
    def root(cls, identity: str) -> "TraceContext":
        """A new trace rooted at a stable identity string."""
        return cls(
            trace_id=_derive("trace|" + identity, 32),
            span_id=_derive("span|" + identity, 16),
        )

    def child(self, name: str) -> "TraceContext":
        """A child node: same trace, span id derived from this node."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=_derive(f"{self.trace_id}|{self.span_id}|{name}", 16),
            parent_id=self.span_id,
        )

    def span_args(self) -> dict:
        """The id triple in the shape span ``args`` carry."""
        out = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        return out

    def to_dict(self) -> dict:
        return self.span_args()

    @classmethod
    def from_dict(cls, data: Optional[dict]) -> Optional["TraceContext"]:
        if not isinstance(data, dict):
            return None
        trace_id = data.get("trace_id")
        span_id = data.get("span_id")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        parent = data.get("parent_id")
        return cls(trace_id, span_id, parent if isinstance(parent, str) else None)


class _State(threading.local):
    def __init__(self) -> None:
        self.context: Optional[TraceContext] = None
        self.remote = False


_STATE = _State()


def current_context() -> Optional[TraceContext]:
    """The context installed on this thread, or None."""
    return _STATE.context


def context_is_remote() -> bool:
    """True when the current context arrived from another process."""
    return _STATE.remote


@contextlib.contextmanager
def use_context(
    ctx: Optional[TraceContext], remote: bool = False
) -> Iterator[Optional[TraceContext]]:
    """Install ``ctx`` as the current context for this thread.

    ``remote=True`` marks the context as having crossed a process
    boundary, which tells the cell span to close the pending flow arrow.
    A ``None`` context is a no-op so callers need no off-path branch.
    """
    if ctx is None:
        yield None
        return
    prev = (_STATE.context, _STATE.remote)
    _STATE.context = ctx
    _STATE.remote = remote
    try:
        yield ctx
    finally:
        _STATE.context, _STATE.remote = prev
