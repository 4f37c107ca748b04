"""Trace record/replay fast path (ROADMAP item 2).

Record the per-cycle current trace of a front end once, content-address it
in a durable store, and replay it through detector/supply variants with a
config-digest guard -- full simulation is always the fallback, so a store
can be cold, corrupt or mismatched without ever changing a result.
"""

from repro.trace.replay import ReplayFrontEnd, ReplaySimulation
from repro.trace.store import (
    STORE_VERSION,
    TraceCapture,
    TraceKey,
    TracePayload,
    TraceStore,
    canonical_digest,
    overlay_token,
)

__all__ = [
    "STORE_VERSION",
    "ReplayFrontEnd",
    "ReplaySimulation",
    "TraceCapture",
    "TraceKey",
    "TracePayload",
    "TraceStore",
    "canonical_digest",
    "overlay_token",
]
