"""Observability: structured logging, metrics, and span tracing.

The subsystem is **off by default** and costs nothing measurable when off:
instrumented seams read one module attribute (the active tracer or
registry) and skip when it is ``None``; nothing is allocated, opened or
formatted.  ``configure()`` -- driven by the ``--trace-out``,
``--metrics-out`` and ``--log-level`` CLI flags -- turns the layers on
individually:

* ``--trace-out trace.json`` records phase/cell spans and supervision
  instants (see :mod:`repro.obs.trace`) and, at :func:`finalize`, merges
  the per-process shards into a Chrome trace-event JSON that opens
  directly in Perfetto;
* ``--metrics-out metrics.json`` activates the process-wide
  :class:`~repro.obs.metrics.MetricsRegistry` and, at :func:`finalize`,
  writes the JSON dump plus a Prometheus text exposition sibling
  (``metrics.prom``);
* ``--log-level DEBUG`` lowers the shared ``repro`` logger's threshold
  and switches it to a structured format (:mod:`repro.obs.log`).

* ``--profile-out profile.json`` starts the stdlib sampling profiler
  (:mod:`repro.obs.profile`) and, at :func:`finalize`, writes a
  speedscope JSON (https://speedscope.app) plus a collapsed-stack
  sibling (``profile.json.collapsed``).

:func:`reset` turns every layer off again without writing anything.

Worker processes inherit the configuration through
:func:`worker_spec` / :func:`init_worker` (wired into the sweep pool
initializer), writing their spans and profile samples into their own
shard files and shipping metric deltas back with each cell result.
Trace spans carry deterministic :class:`~repro.obs.context.TraceContext`
ids, so one sweep's spans link across every process boundary.
"""

from __future__ import annotations

import argparse
import os
from typing import Dict, List, Optional

from repro.obs import log as log  # noqa: F401  (re-exported module)
from repro.obs import profile as profile  # noqa: F401  (re-exported module)
from repro.obs.context import TraceContext, current_context, use_context
from repro.obs.log import configure_logging, get_logger, warn_once
from repro.obs.metrics import (
    MetricsRegistry,
    active_registry,
    set_active_registry,
)
from repro.obs.profile import (
    SamplingProfiler,
    active_profiler,
    set_active_profiler,
)
from repro.obs.trace import (
    Tracer,
    active_tracer,
    cleanup_shards,
    export_chrome_trace,
    set_active_tracer,
    shard_dir_for,
)

__all__ = [
    "configure",
    "configure_from_args",
    "add_observability_flags",
    "finalize",
    "reset",
    "is_configured",
    "active_registry",
    "active_tracer",
    "active_profiler",
    "worker_spec",
    "init_worker",
    "get_logger",
    "warn_once",
    "MetricsRegistry",
    "Tracer",
    "SamplingProfiler",
    "TraceContext",
    "current_context",
    "use_context",
]

_trace_out: Optional[str] = None
_metrics_out: Optional[str] = None
_profile_out: Optional[str] = None


def configure(
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    log_level: Optional[str] = None,
    profile_out: Optional[str] = None,
) -> None:
    """Activate the requested observability layers in this process."""
    global _trace_out, _metrics_out, _profile_out
    configure_logging(log_level)
    if trace_out is not None:
        _trace_out = trace_out
        # Leftovers of a previous run must not leak into this trace.
        shard_dir = shard_dir_for(trace_out)
        cleanup_shards(shard_dir)
        set_active_tracer(Tracer(shard_dir, process_label="sweep"))
    if metrics_out is not None:
        _metrics_out = metrics_out
        if active_registry() is None:
            set_active_registry(MetricsRegistry())
    if profile_out is not None:
        _profile_out = profile_out
        cleanup_shards(shard_dir_for(profile_out))
        profiler = SamplingProfiler(process_label="sweep")
        set_active_profiler(profiler)
        profiler.start()


def is_configured() -> bool:
    return (
        active_tracer() is not None
        or active_registry() is not None
        or active_profiler() is not None
    )


def _prometheus_path(metrics_path: str) -> str:
    root, ext = os.path.splitext(metrics_path)
    return (root if ext == ".json" else metrics_path) + ".prom"


def finalize(metadata: Optional[Dict[str, object]] = None) -> List[str]:
    """Export the configured artifacts and deactivate the subsystem.

    Returns the list of files written: the merged Chrome trace, the
    metrics JSON and its Prometheus sibling, and the speedscope profile
    plus its collapsed-stack sibling (for whichever layers were
    configured).  Safe to call when nothing is configured (no-op).
    """
    written: List[str] = []
    tracer = active_tracer()
    if tracer is not None and _trace_out is not None:
        tracer.close()
        export_chrome_trace(_trace_out, metadata=metadata)
        written.append(_trace_out)
    registry = active_registry()
    if registry is not None and _metrics_out is not None:
        directory = os.path.dirname(_metrics_out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(_metrics_out, "w") as handle:
            handle.write(registry.to_json() + "\n")
        written.append(_metrics_out)
        prom_path = _prometheus_path(_metrics_out)
        with open(prom_path, "w") as handle:
            handle.write(registry.to_prometheus())
        written.append(prom_path)
    profiler = active_profiler()
    if profiler is not None and _profile_out is not None:
        profiler.stop()
        shard_dir = shard_dir_for(_profile_out)
        processes = profile.merge_profiles(profiler, shard_dir)
        profile.write_speedscope(_profile_out, processes)
        written.append(_profile_out)
        collapsed_path = _profile_out + ".collapsed"
        profile.write_collapsed(collapsed_path, processes)
        written.append(collapsed_path)
        cleanup_shards(shard_dir)
    reset()
    return written


def reset() -> None:
    """Deactivate every layer without exporting anything.

    Stops and drops the active profiler, closes and drops the active
    tracer, drops the registry and forgets the three output paths, so a
    later :func:`configure` starts clean.  Safe to call when nothing is
    configured (no-op).
    """
    global _trace_out, _metrics_out, _profile_out
    profiler = active_profiler()
    if profiler is not None:
        profiler.stop()
    tracer = active_tracer()
    if tracer is not None:
        tracer.close()
    set_active_profiler(None)
    set_active_tracer(None)
    set_active_registry(None)
    _trace_out = None
    _metrics_out = None
    _profile_out = None


# ----------------------------------------------------------------------
# Worker-process propagation (used by the sweep pool initializer)
# ----------------------------------------------------------------------

def worker_spec() -> Optional[dict]:
    """Picklable description of this process's observability, or None."""
    tracer = active_tracer()
    spec: dict = {}
    if tracer is not None and _trace_out is not None:
        spec["trace_shard_dir"] = shard_dir_for(_trace_out)
    if active_registry() is not None:
        spec["metrics"] = True
    if active_profiler() is not None and _profile_out is not None:
        spec["profile_shard_dir"] = shard_dir_for(_profile_out)
    return spec or None


def init_worker(spec: Optional[dict]) -> None:
    """Activate observability inside a pool worker from a parent's spec."""
    if not spec:
        return
    shard_dir = spec.get("trace_shard_dir")
    if shard_dir:
        set_active_tracer(Tracer(shard_dir, process_label="worker"))
    if spec.get("metrics"):
        set_active_registry(MetricsRegistry())
    profile_shard_dir = spec.get("profile_shard_dir")
    if profile_shard_dir:
        # A forked worker inherits the parent's profiler object, but not
        # its sampling thread: install a profiler of its own.
        shard_path = os.path.join(
            profile_shard_dir, f"pid-{os.getpid()}.json"
        )
        profiler = SamplingProfiler(
            process_label="worker", shard_path=shard_path
        )
        set_active_profiler(profiler)
        profiler.start()


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------

def add_observability_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared observability flags to a CLI parser."""
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write a Chrome/Perfetto trace of the run (phase and cell"
             " spans, retry/supervision events) to PATH",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the metrics registry to PATH as JSON, plus a"
             " Prometheus text exposition next to it (.prom)",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help="sample Python stacks across all processes and write a"
             " speedscope JSON profile to PATH, plus a collapsed-stack"
             " sibling (.collapsed)",
    )
    parser.add_argument(
        "--log-level",
        metavar="LEVEL",
        default=None,
        choices=["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"],
        help="structured-logging threshold for the shared 'repro' logger"
             " (default: WARNING, plain-message format)",
    )


def configure_from_args(args) -> bool:
    """Apply parsed observability flags; returns True if any layer is on."""
    configure(
        trace_out=getattr(args, "trace_out", None),
        metrics_out=getattr(args, "metrics_out", None),
        log_level=getattr(args, "log_level", None),
        profile_out=getattr(args, "profile_out", None),
    )
    return is_configured()
