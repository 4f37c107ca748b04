"""Sweep execution backends, and the process pool the parallel one runs on.

:meth:`repro.sim.runner.BenchmarkRunner.sweep` plans a sweep -- the
(benchmark, seed) grid, checkpoint state, retry budget -- and hands the
pending work to a backend as a :class:`SweepJob`.  A backend's only
contract is :meth:`SweepBackend.execute`: run every pending cell (or
park it as a :class:`~repro.sim.runner.FailureReport`), honouring the
job's drain flag, circuit breaker, checkpointing and incident log.  Both
backends must be *interchangeable*: the same sweep produces byte-
identical aggregates, failures, and checkpoint files on either backend,
and a checkpoint written by one backend resumes on the other.

Two backends exist:

* :class:`SequentialBackend` -- cells run in-process, in grid order;
* :class:`ProcessPoolBackend` -- cells fan out to a supervised local
  ``ProcessPoolExecutor`` (heartbeats, stale-kill, pool rebuild).

``ResilienceConfig.workers`` alone selects between them (see
:func:`select_backend`).

Both run what the sweep's spec names: the one pickle of its
``SweepConfig``, supply transform and probe controller
(:func:`~repro.sim.checkpoint.sweep_spec`).  Every attempt runs a fresh
copy of the probe restored from it, in-process or in a worker; a worker
receives those bytes in place of the runner and the factory.

Everything about the pool lives here: :class:`WorkerPool` (the executor,
the heartbeat channel and their lifecycle), the entry points its worker
processes run (:func:`_worker_init`, :func:`_worker_run_cell`) and the
supervisor inside :meth:`ProcessPoolBackend.execute`.  Each
:class:`~repro.sim.runner.Session` owns one :class:`WorkerPool` and reuses
it across the command's sweeps.  Workers keep no results between cells:
a cell's base result travels with the cell when the session holds it, and
a base the worker had to compute comes back with the cell's metrics, so
each (config, benchmark, seed) base runs once per session.
"""

from __future__ import annotations

import abc
import contextlib
import functools
import multiprocessing
import os
import pickle
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait as futures_wait,
)
from concurrent.futures.process import BrokenProcessPool

from repro import obs
from repro.errors import HarnessError, SweepInterrupted, WorkerLostError
from repro.obs import context as obs_context
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.sim.checkpoint import SweepCheckpoint
from repro.sim.metrics import RelativeMetrics

__all__ = [
    "SweepBackend",
    "SweepJob",
    "SequentialBackend",
    "ProcessPoolBackend",
    "WorkerPool",
    "select_backend",
]

Cell = Tuple[str, Optional[int]]

#: How often the parallel supervisor wakes to check heartbeats and drain
#: requests while no future has completed, in seconds.
_SUPERVISOR_POLL_S = 0.2

#: How many times one cell may be requeued after losing its worker
#: (killed, OOM'd, or heartbeat-stale) before it is parked as a
#: WorkerLostError failure.
_MAX_WORKER_RESTARTS = 2


@dataclass
class SweepJob:
    """Everything one sweep execution needs, bundled for a backend.

    The mutable state (``results``, ``failure_map``, ``checkpoint``,
    ``timings``) belongs to the caller -- :meth:`BenchmarkRunner.sweep`
    aggregates from it after ``execute`` returns -- so backends write
    results through the :meth:`record_success` / :meth:`record_failure`
    helpers, which also keep the checkpoint and progress callback
    consistent across backends.
    """

    runner: "object"  # BenchmarkRunner (untyped to avoid a module cycle)
    grid: Sequence[Cell]
    pending: Sequence[Cell]
    technique: str
    #: the sweep's spec: one pickle of (SweepConfig, supply transform,
    #: probe controller), see :func:`repro.sim.checkpoint.sweep_spec`
    spec_blob: bytes
    resilience: "object"  # ResilienceConfig
    progress: Optional[Callable[[str, RelativeMetrics], None]]
    checkpoint: SweepCheckpoint
    results: Dict[Cell, RelativeMetrics]
    failure_map: Dict[Cell, "object"]
    timings: Dict[str, float]
    drain: "object"  # the sweep's drain flag: is_set(), signum, signal_name
    #: the session's process pool (used by the pool backend only)
    pool: "WorkerPool"
    #: root of the sweep's trace store, shipped to pool workers; None
    #: when record/replay is off
    trace_store_root: Optional[str] = None
    incidents: List["object"] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Shared result/failure/drain bookkeeping
    # ------------------------------------------------------------------
    def keep(self, cell: Cell, metrics: RelativeMetrics) -> None:
        """Hold a completed cell in the results and the session's cells."""
        self.results[cell] = metrics
        self.checkpoint.record(cell, metrics)

    def record_success(self, cell: Cell, metrics: RelativeMetrics) -> None:
        """Store a completed cell: results, checkpoint flush, progress."""
        self.keep(cell, metrics)
        t_io = time.perf_counter()
        self.checkpoint.flush()
        self.timings["checkpoint_io"] += time.perf_counter() - t_io
        if self.progress is not None:
            self.progress(cell[0], metrics)

    def record_failure(self, cell: Cell, failure) -> None:
        self.failure_map[cell] = failure

    def pending_after(self) -> List[Cell]:
        """Cells still unaccounted for (used by drain summaries)."""
        return [
            c for c in self.grid
            if c not in self.results and c not in self.failure_map
        ]

    def drain_now(self) -> SweepInterrupted:
        """Flush the checkpoint, write the shutdown summary, and return
        the :class:`SweepInterrupted` for the backend to raise."""
        completed, pending = len(self.results), self.pending_after()
        signal_name = self.drain.signal_name
        tracer = obs_trace.active_tracer()
        if tracer is not None:
            tracer.instant("drain", cat=obs_trace.CAT_SUPERVISION, args={
                "signal": signal_name,
                "completed": completed,
                "pending": len(pending),
            })
        self.checkpoint.flush()
        self.checkpoint.write_shutdown(signal_name, completed, pending)
        return SweepInterrupted(
            f"sweep drained on {signal_name}: {completed} cell(s)"
            f" completed and checkpointed, {len(pending)} pending;"
            f" rerun with --resume to finish",
            signum=self.drain.signum,
            completed=completed,
            pending=len(pending),
        )


def _fresh_controller(spec_blob: bytes, supply_config, processor_config):
    """A fresh copy of a sweep's probe controller, restored from its spec
    (the probe was built at the configurations the arguments repeat)."""
    return pickle.loads(spec_blob)[2]


def _circuit_open_report(benchmark: str, technique: str, seed: Optional[int]):
    """A cell parked (never attempted) by the per-benchmark circuit breaker."""
    from repro.sim.runner import FailureReport

    return FailureReport(
        benchmark=benchmark,
        technique=technique,
        seed=seed,
        attempts=0,
        error_type="CircuitOpen",
        message=(
            f"parked by the circuit breaker: the first pending cell of"
            f" {benchmark!r} exhausted its retry budget"
        ),
        skipped=True,
    )


def _worker_lost_report(
    benchmark: str, technique: str, seed: Optional[int],
    losses: int, detail: str,
):
    """A cell abandoned after repeatedly losing its worker process."""
    from repro.sim.runner import FailureReport

    return FailureReport(
        benchmark=benchmark,
        technique=technique,
        seed=seed,
        attempts=losses,
        error_type=WorkerLostError.__name__,
        message=detail,
    )


class _CellQueue:
    """Circuit-breaker-aware dispatch queue shared by fan-out backends.

    Mirrors the sequential circuit-breaker rule exactly: the first
    *pending* cell of each benchmark (grid order) is its probe; the
    benchmark's remaining cells are held until the probe resolves, then
    released (probe completed, or lost its worker) or parked as
    ``CircuitOpen`` failures (probe exhausted its retry budget).  The
    rule depends only on grid order, so every backend parks the
    identical set of cells.
    """

    def __init__(self, job: SweepJob):
        self.job = job
        self.queue: deque = deque()
        self.held: Dict[str, List[Cell]] = {}
        self.probes: Dict[Cell, str] = {}
        seen: set = set()
        for cell in job.pending:
            name = cell[0]
            if name in seen:
                self.held.setdefault(name, []).append(cell)
            else:
                seen.add(name)
                self.probes[cell] = name
                self.queue.append(cell)

    def release_probe(self, cell: Cell, run_failed: bool) -> None:
        """Unblock (or park) the cells held behind a probe."""
        name = self.probes.pop(cell, None)
        if name is None:
            return
        tracer = obs_trace.active_tracer()
        if run_failed and tracer is not None:
            tracer.instant(
                "circuit_breaker_trip",
                cat=obs_trace.CAT_SUPERVISION,
                args={"benchmark": name, "technique": self.job.technique},
            )
        for follower in self.held.pop(name, []):
            if run_failed:
                self.job.record_failure(
                    follower,
                    _circuit_open_report(
                        name, self.job.technique, follower[1]
                    ),
                )
            else:
                self.queue.append(follower)

    def release_all_held(self) -> None:
        """Belt-and-braces: requeue held cells whose probe vanished."""
        for name in list(self.held):
            self.queue.extend(self.held.pop(name))


class SweepBackend(abc.ABC):
    """One way of executing a sweep's pending cells.

    ``name`` labels the backend in traces and metrics; ``workers`` is
    the effective degree of parallelism (1 for sequential), recorded in
    the sweep's ``timings``.
    """

    name: str = "?"
    workers: int = 1

    @abc.abstractmethod
    def execute(self, job: SweepJob) -> None:
        """Run every pending cell of ``job`` (or park it as a failure).

        Must honour ``job.drain`` (raise ``job.drain_now()`` on a drain
        request), record supervision events on ``job.incidents``, and
        leave ``job.results``/``job.failure_map`` covering the grid.
        """


class SequentialBackend(SweepBackend):
    """Run pending cells in-process, in grid order."""

    name = "sequential"
    workers = 1

    def execute(self, job: SweepJob) -> None:
        tracer = obs_trace.active_tracer()
        resilience = job.resilience
        if (
            resilience.timeout_s is not None
            and threading.current_thread() is not threading.main_thread()
        ):
            # The per-cell bound is SIGALRM, which only the main thread
            # can take; checked here, once, because a failure inside the
            # cell would only turn into retries and a FaultError.
            raise HarnessError(
                f"timeout_s={resilience.timeout_s:g} needs the main thread:"
                f" a sequential sweep enforces it with SIGALRM; run the"
                f" sweep on the main thread or drop timeout_s"
            )
        factory = functools.partial(_fresh_controller, job.spec_blob)
        open_benchmarks: set = set()
        probed: set = set()
        # Base runs that failed in the warm-up, by cell: each is that
        # cell's first attempt, so it is not run again at the same seed.
        warmup_errors: Dict[Cell, Exception] = {}
        if len(job.pending) > 1:
            # Warm the session's base runs, one cell at a time, before
            # the first cell, so cell times hold the technique runs; a
            # failed prefetch only costs the warm-up.
            try:
                job.runner.prefetch_base_batch(
                    job.pending,
                    timeout_s=resilience.timeout_s,
                    should_stop=job.drain.is_set,
                    errors=warmup_errors,
                    resilience=resilience,
                )
            except Exception:
                pass
        for name, seed in job.grid:
            cell = (name, seed)
            if cell in job.results:  # resumed from the checkpoint
                if job.progress is not None:
                    job.progress(name, job.results[cell])
                continue
            if job.drain.is_set():
                raise job.drain_now()
            if name in open_benchmarks:
                job.record_failure(
                    cell, _circuit_open_report(name, job.technique, seed)
                )
                continue
            is_probe = name not in probed
            probed.add(name)
            metrics, failure = job.runner.run_cell(
                name, job.technique, factory, resilience, base_seed=seed,
                warmup_error=warmup_errors.get(cell),
            )
            if failure is not None:
                job.record_failure(cell, failure)
                if is_probe:
                    open_benchmarks.add(name)
                    if tracer is not None:
                        tracer.instant(
                            "circuit_breaker_trip",
                            cat=obs_trace.CAT_SUPERVISION,
                            args={
                                "benchmark": name,
                                "technique": job.technique,
                            },
                        )
                continue
            job.record_success(cell, metrics)


# ----------------------------------------------------------------------
# Worker-process entry points
# ----------------------------------------------------------------------

#: What a worker process keeps between cells: the heartbeat channel the
#: pool initializer installed, and nothing else.
_WORKER_STATE: dict = {}


def _worker_init(heartbeats, obs_spec) -> None:
    """Pool initializer: heartbeat channel plus observability hand-off.

    ``obs_spec`` is the parent's picklable :func:`repro.obs.worker_spec`:
    the worker opens its own trace shard and metrics registry from it, so
    spans and counters survive the process boundary without sharing any
    file handle or lock.
    """
    if heartbeats is not None:
        _WORKER_STATE["heartbeats"] = heartbeats
    obs.init_worker(obs_spec)


def _worker_beat(stage: str, cell_label: str) -> None:
    """Record this worker's liveness (best effort -- never fail the cell)."""
    heartbeats = _WORKER_STATE.get("heartbeats")
    if heartbeats is None:
        return
    try:
        heartbeats[os.getpid()] = (stage, cell_label, time.time())
    except Exception:  # manager gone mid-shutdown: liveness is moot
        pass


def _worker_run_cell(
    spec_blob: bytes,
    benchmark: str,
    technique: str,
    seed: Optional[int],
    timeout_s: Optional[float],
    max_retries: int,
    trace_store_root: Optional[str] = None,
    base=None,
    ctx: Optional[dict] = None,
):
    """Execute one sweep cell inside a pool worker.

    ``spec_blob`` is the sweep's spec, the pickle of ``(sweep_config,
    supply_transform, probe controller)``; the worker builds a
    :class:`~repro.sim.runner.BenchmarkRunner` with a private session from
    it for this cell alone, so no simulator state is shared with the
    parent or with sibling workers, and every attempt runs a fresh copy
    of the probe restored from it.  ``base`` is the cell's base result
    when the parent's session holds it.  The cell runs through the same
    :meth:`~repro.sim.runner.BenchmarkRunner.run_cell` as the sequential
    path -- on the worker's main thread, so the SIGALRM timeout applies
    and a timed-out cell dies in place instead of leaking a live thread.

    The worker stamps a heartbeat at cell start, at every retry attempt,
    and at completion; the parent's supervisor treats a ``run``-stage
    stamp older than ``heartbeat_stale_s`` as a hung worker.

    Returns ``(metrics, failure, telemetry, computed_base)``: the worker's
    metrics registry is reset at cell start and snapshotted at cell end,
    so ``telemetry`` is exactly this cell's counter deltas for the parent
    to :meth:`~repro.obs.metrics.MetricsRegistry.merge` -- additive and
    order-independent, so the merged totals do not depend on completion
    order.  ``computed_base`` is the base result at ``seed`` when the
    worker ran it, for the parent's session to hold.
    """
    # Function-level import: the runner module imports this one.
    from repro.sim.runner import BenchmarkRunner, ResilienceConfig

    cell_label = f"{benchmark}|{'-' if seed is None else seed}"
    _worker_beat("run", cell_label)
    registry = obs_metrics.active_registry()
    if registry is not None:
        registry.reset()
    try:
        config, supply_transform, _ = pickle.loads(spec_blob)
        runner = BenchmarkRunner(
            config,
            supply_transform=supply_transform,
            trace_store=trace_store_root,
        )
        base_key = runner.base_key(benchmark, seed)
        if base is not None:
            runner.session.bases[base_key] = base
        resilience = ResilienceConfig(
            timeout_s=timeout_s, max_retries=max_retries
        )
        # The dispatch context (the parent's sweep span) crosses the
        # process boundary as a plain dict; installing it marked remote
        # makes the cell span close the parent's pending flow arrow.
        with obs_context.use_context(
            obs_context.TraceContext.from_dict(ctx), remote=True
        ):
            metrics, failure = runner.run_cell(
                benchmark,
                technique,
                functools.partial(_fresh_controller, spec_blob),
                resilience,
                base_seed=seed,
                on_attempt=lambda attempt: _worker_beat("run", cell_label),
            )
        telemetry = registry.snapshot() if registry is not None else None
        computed = None if base is not None else runner.session.bases.get(
            base_key
        )
        return metrics, failure, telemetry, computed
    finally:
        profiler = obs_profile.active_profiler()
        if profiler is not None:
            profiler.flush_shard()
        _worker_beat("idle", cell_label)


def _merge_worker_telemetry(telemetry: Optional[dict]) -> None:
    """Fold a worker's per-cell metrics snapshot into the parent registry.

    Snapshots are additive deltas (the worker registry is reset at cell
    start), so the merge is commutative: the combined totals do not depend
    on completion order.
    """
    if telemetry is None:
        return
    registry = obs_metrics.active_registry()
    if registry is not None:
        registry.merge(telemetry)


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------

class WorkerPool:
    """One session's worker processes: the executor and heartbeat channel.

    Empty until the first parallel sweep; :meth:`ensure` then starts the
    executor and keeps it for later sweeps of the same shape (worker
    count, heartbeat supervision, observability spec), so a command's
    sweeps do not pay for process start-up more than once.
    :meth:`shutdown` releases the executor but leaves the pool usable (the
    supervisor rebuilds through it); :meth:`close` releases everything for
    good.
    """

    def __init__(self) -> None:
        self._executor: Optional[ProcessPoolExecutor] = None
        #: (workers, heartbeat, obs spec) the live executor was built for
        self._shape: Optional[tuple] = None
        self._manager = None
        self._heartbeats = None
        self.closed = False

    def ensure(self, workers: int, heartbeat: bool) -> ProcessPoolExecutor:
        """The executor for this shape, rebuilt when the shape changed."""
        if self.closed:
            raise HarnessError(
                "the session is closed: its worker pool was released;"
                " create a new runner or session to sweep again"
            )
        shape = (workers, heartbeat, obs.worker_spec())
        if self._executor is not None and self._shape != shape:
            self.shutdown()
        if self._executor is None:
            heartbeats = None
            if heartbeat:
                if self._manager is None:
                    self._manager = multiprocessing.Manager()
                    self._heartbeats = self._manager.dict()
                self._heartbeats.clear()
                heartbeats = self._heartbeats
            self._executor = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_worker_init,
                initargs=(heartbeats, shape[2]),
            )
            self._shape = shape
        return self._executor

    def shutdown(self) -> None:
        """Release the executor (rebuildable; the pool stays open)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
            self._shape = None

    def close(self) -> None:
        """Release the executor and heartbeat channel; idempotent."""
        self.shutdown()
        if self._manager is not None:
            with contextlib.suppress(Exception):
                self._manager.shutdown()
            self._manager = None
            self._heartbeats = None
        self.closed = True

    def _worker_pids(self) -> List[int]:
        """PIDs of the live workers (empty when no executor exists)."""
        executor = self._executor
        processes = getattr(executor, "_processes", None) if executor else None
        return list(processes or ())

    def kill_workers(self, pids: Optional[Sequence[int]] = None) -> None:
        """SIGKILL ``pids`` (a hung worker), or every worker (the drain
        deadline passed)."""
        for pid in self._worker_pids() if pids is None else pids:
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)

    def stale_worker_pids(self, stale_s: float) -> List[int]:
        """PIDs whose current cell has not progressed for ``stale_s``."""
        if self._heartbeats is None:
            return []
        now = time.time()
        alive = set(self._worker_pids())
        stale = []
        try:
            snapshot = dict(self._heartbeats)
        except Exception:  # manager already torn down
            return []
        for pid, entry in snapshot.items():
            if pid not in alive:
                continue
            stage, _cell_label, stamped = entry
            if stage == "run" and now - stamped > stale_s:
                stale.append(pid)
        return stale


class ProcessPoolBackend(SweepBackend):
    """Run pending cells on a *supervised* local process pool.

    The parent writes the checkpoint as cells complete (completion
    order, but cell-keyed, so the final file is byte-identical to a
    sequential run's) and reports ``progress`` in completion order;
    cached cells are reported first, in grid order.

    Supervision: cells are dispatched incrementally (a bounded window
    rather than all up front).  A dead worker (``BrokenProcessPool`` --
    OOM kill, segfault, SIGKILL) or a hung one (heartbeat older than
    ``heartbeat_stale_s``, killed by the supervisor) triggers a pool
    rebuild; the lost cells are requeued with a per-cell restart budget
    (:data:`_MAX_WORKER_RESTARTS`) and each event is recorded on the
    summary's ``incidents``.  Cells that keep losing their worker are
    parked as ``WorkerLostError`` failures; the sweep always terminates
    instead of hanging on a poisoned pool.

    A drain request (SIGTERM/SIGINT) stops dispatch, waits up to
    ``drain_deadline_s`` for in-flight cells, kills whatever is still
    running, flushes the checkpoint and raises
    :class:`~repro.errors.SweepInterrupted`.
    """

    name = "pool"

    def __init__(self, workers: int):
        self.workers = workers

    def execute(self, job: SweepJob) -> None:
        runner = job.runner
        pool = job.pool
        resilience = job.resilience
        workers = self.workers
        tracer = obs_trace.active_tracer()
        registry = obs_metrics.active_registry()
        if job.progress is not None:
            for cell in job.grid:
                if cell in job.results:
                    job.progress(cell[0], job.results[cell])
        heartbeat = resilience.heartbeat_stale_s is not None
        executor = pool.ensure(workers, heartbeat=heartbeat)

        cell_queue = _CellQueue(job)
        queue = cell_queue.queue

        inflight: Dict[object, Cell] = {}
        lost_cells: List[Cell] = []
        lost_detail = ""
        lost_counts: Dict[Cell, int] = {}
        # Each rebuild loses at least one in-flight cell, and each cell
        # is parked after _MAX_WORKER_RESTARTS losses, so this hard cap
        # can only bind if supervision itself misbehaves.
        rebuilds_left = (_MAX_WORKER_RESTARTS + 1) * max(
            1, len(job.pending)
        )
        pool_broken = False

        dispatch_ctx = obs_context.current_context()

        def submit(cell):
            name, seed = cell
            base = runner.session.bases.get(runner.base_key(name, seed))
            if dispatch_ctx is not None and tracer is not None:
                # Open a flow arrow to the worker's cell span; both sides
                # derive the same deterministic cell span id.
                cell_ctx = dispatch_ctx.child(
                    f"cell|{name}|{job.technique}|{seed}"
                )
                tracer.flow_start(cell_ctx.span_id)
            future = executor.submit(
                _worker_run_cell,
                job.spec_blob,
                name,
                job.technique,
                seed,
                resilience.timeout_s,
                resilience.max_retries,
                trace_store_root=job.trace_store_root,
                base=base,
                ctx=None if dispatch_ctx is None else dispatch_ctx.to_dict(),
            )
            inflight[future] = cell

        def collect(cell, outcome):
            """Merge a finished cell's telemetry and hold its base run;
            returns ``(metrics, failure)``."""
            metrics, failure, telemetry, computed = outcome
            _merge_worker_telemetry(telemetry)
            if computed is not None:
                runner.session.bases.setdefault(
                    runner.base_key(*cell), computed
                )
            return metrics, failure

        def record_result(cell, metrics, failure):
            if failure is not None:
                job.record_failure(cell, failure)
                cell_queue.release_probe(cell, run_failed=True)
                return
            job.record_success(cell, metrics)
            cell_queue.release_probe(cell, run_failed=False)

        def abandon_cell(cell, losses, detail):
            job.record_failure(
                cell,
                _worker_lost_report(
                    cell[0], job.technique, cell[1], losses, detail
                ),
            )
            cell_queue.release_probe(cell, run_failed=False)

        def handle_lost_cells():
            """Requeue (or park) cells whose worker died; rebuild the
            pool."""
            nonlocal executor, pool_broken, rebuilds_left, lost_detail
            lost, detail = list(lost_cells), lost_detail
            lost_cells.clear()
            lost_detail = ""
            for cell in lost:
                losses = lost_counts.get(cell, 0) + 1
                lost_counts[cell] = losses
                job.incidents.append(
                    _worker_lost_report(
                        cell[0], job.technique, cell[1], losses, detail
                    )
                )
                if losses > _MAX_WORKER_RESTARTS:
                    abandon_cell(
                        cell,
                        losses,
                        f"abandoned after losing its worker {losses}"
                        f" time(s)"
                        f" (budget {_MAX_WORKER_RESTARTS});"
                        f" last incident: {detail}",
                    )
                else:
                    queue.appendleft(cell)
            if registry is not None:
                registry.counter(
                    "runner_worker_restarts_total",
                    help="pool rebuilds after a lost or hung worker",
                ).inc()
            if tracer is not None:
                tracer.instant(
                    "pool_rebuild",
                    cat=obs_trace.CAT_SUPERVISION,
                    args={
                        "lost_cells": len(lost),
                        "detail": detail,
                        "rebuilds_left": rebuilds_left - 1,
                    },
                )
            rebuilds_left -= 1
            pool.shutdown()
            pool_broken = False
            if rebuilds_left <= 0:
                # Abandoning a probe releases its held cells into the
                # queue; keep draining until nothing is left anywhere.
                while queue:
                    cell = queue.popleft()
                    abandon_cell(
                        cell, lost_counts.get(cell, 0),
                        "worker-restart budget exhausted for the whole"
                        " sweep",
                    )
            executor = pool.ensure(workers, heartbeat=heartbeat)

        def drain_and_raise():
            deadline = time.monotonic() + resilience.drain_deadline_s
            while inflight and time.monotonic() < deadline:
                done, _ = futures_wait(
                    set(inflight),
                    timeout=_SUPERVISOR_POLL_S,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    cell = inflight.pop(future)
                    try:
                        outcome = future.result()
                    except BaseException:
                        continue  # lost to the drain; --resume recomputes
                    metrics, failure = collect(cell, outcome)
                    if failure is None:
                        job.keep(cell, metrics)
            for future in inflight:
                future.cancel()
            if inflight:  # still running past the deadline: kill the pool
                pool.kill_workers()
            pool.shutdown()
            raise job.drain_now()

        try:
            while queue or inflight or any(cell_queue.held.values()):
                if job.drain.is_set():
                    drain_and_raise()
                if not pool_broken:
                    while queue and len(inflight) < 2 * workers:
                        cell = queue.popleft()
                        try:
                            submit(cell)
                        except BrokenProcessPool as error:
                            # The pool broke between completions;
                            # recover through the same lost-cell path.
                            pool_broken = True
                            lost_cells.append(cell)
                            lost_detail = (
                                f"worker pool broke at dispatch"
                                f" ({type(error).__name__}: {error})"
                            )
                            break
                if not inflight:
                    # Held cells with no live probe would deadlock; the
                    # bookkeeping above always resolves probes, so this
                    # is pure belt-and-braces.
                    if not queue:
                        cell_queue.release_all_held()
                    continue
                done, _ = futures_wait(
                    set(inflight),
                    timeout=_SUPERVISOR_POLL_S,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    if heartbeat and not pool_broken:
                        stale = pool.stale_worker_pids(
                            resilience.heartbeat_stale_s
                        )
                        if tracer is not None:
                            for pid in stale:
                                tracer.instant(
                                    "heartbeat_stale_kill",
                                    cat=obs_trace.CAT_SUPERVISION,
                                    args={"pid": pid},
                                )
                        # Killing a worker breaks the pool; the normal
                        # lost-cell path rebuilds and requeues.
                        pool.kill_workers(stale)
                    continue
                for future in done:
                    cell = inflight.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool as error:
                        # Hold the lost cell until the broken pool
                        # finishes failing its remaining futures, then
                        # rebuild once.
                        pool_broken = True
                        lost_cells.append(cell)
                        lost_detail = (
                            f"worker process died mid-cell"
                            f" ({type(error).__name__}: {error})"
                        )
                        continue
                    record_result(cell, *collect(cell, outcome))
                if pool_broken and not inflight:
                    handle_lost_cells()
        except SweepInterrupted:
            raise
        except BaseException:
            # A kill (or a progress-raised abort) must not strand queued
            # work: unstarted cells are cancelled, in-flight results
            # discarded.  The checkpoint holds everything completed so
            # far.
            for future in inflight:
                future.cancel()
            raise


def select_backend(resilience, n_pending: int) -> SweepBackend:
    """The backend this sweep runs on, chosen by ``resilience.workers``.

    More than one worker with more than one pending cell fans out to the
    process pool; anything else runs sequentially.
    """
    workers = min(resilience.workers, n_pending)
    if workers <= 1:
        return SequentialBackend()
    return ProcessPoolBackend(workers)
