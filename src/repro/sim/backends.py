"""Sweep execution backends behind the :class:`SweepBackend` interface.

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
"""

from __future__ import annotations

import abc
import contextlib
import pickle
import signal
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from concurrent.futures import FIRST_COMPLETED, wait as futures_wait
from concurrent.futures.process import BrokenProcessPool

from repro.errors import SweepInterrupted
from repro.obs import context as obs_context
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.log import warn_once
from repro.sim.metrics import RelativeMetrics

__all__ = [
    "SweepBackend",
    "SweepJob",
    "SequentialBackend",
    "ProcessPoolBackend",
    "select_backend",
]

Cell = Tuple[str, Optional[int]]


@dataclass
class SweepJob:
    """Everything one sweep execution needs, bundled for a backend.

    The mutable mappings (``results``, ``failure_map``, ``cells``,
    ``timings``) belong to the caller -- :meth:`BenchmarkRunner.sweep`
    aggregates from them after ``execute`` returns -- so backends write
    results through the :meth:`record_success` / :meth:`record_failure`
    helpers, which also keep the checkpoint and progress callback
    consistent across backends.
    """

    runner: "object"  # BenchmarkRunner (untyped to avoid a module cycle)
    grid: Sequence[Cell]
    pending: Sequence[Cell]
    ordinal: int
    technique: str
    factory: Callable
    resilience: "object"  # ResilienceConfig
    progress: Optional[Callable[[str, RelativeMetrics], None]]
    cells: Dict[str, dict]
    results: Dict[Cell, RelativeMetrics]
    failure_map: Dict[Cell, "object"]
    timings: Dict[str, float]
    drain: "object"  # _DrainFlag
    incidents: List["object"] = field(default_factory=list)
    #: failure counterpart of ``progress``: called as ``on_failure(cell,
    #: report)`` whenever a cell is parked as a FailureReport, so callers
    #: streaming sweep progress (the serving tier) see failed cells too.
    on_failure: Optional[Callable] = None

    # ------------------------------------------------------------------
    # Shared result/failure/drain bookkeeping
    # ------------------------------------------------------------------
    def record_success(self, cell: Cell, metrics: RelativeMetrics) -> None:
        """Store a completed cell: results, checkpoint, progress."""
        from repro.sim.runner import _cell_key

        name, seed = cell
        self.results[cell] = metrics
        self.cells[
            _cell_key(self.ordinal, name, self.technique, seed)
        ] = asdict(metrics)
        t_io = time.perf_counter()
        self.runner._save_cells(self.resilience)
        self.timings["checkpoint_io"] += time.perf_counter() - t_io
        if self.progress is not None:
            self.progress(name, metrics)

    def record_failure(self, cell: Cell, failure) -> None:
        self.failure_map[cell] = failure
        if self.on_failure is not None:
            self.on_failure(cell, failure)

    def pending_after(self) -> List[Cell]:
        """Cells still unaccounted for (used by drain summaries)."""
        return [
            c for c in self.grid
            if c not in self.results and c not in self.failure_map
        ]

    def drain_now(self) -> SweepInterrupted:
        """Flush the checkpoint, write the shutdown summary, and return
        the :class:`SweepInterrupted` for the backend to raise."""
        return self.runner._drain_now(
            self.resilience, self.technique, self.drain,
            len(self.results), self.pending_after(),
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

    def __init__(self, job: SweepJob, circuit_breaker: bool):
        self.job = job
        self.queue: deque = deque()
        self.held: Dict[str, List[Cell]] = {}
        self.probes: Dict[Cell, str] = {}
        if circuit_breaker:
            seen: set = set()
            for cell in job.pending:
                name = cell[0]
                if name in seen:
                    self.held.setdefault(name, []).append(cell)
                else:
                    seen.add(name)
                    self.probes[cell] = name
                    self.queue.append(cell)
        else:
            self.queue.extend(job.pending)

    def __bool__(self) -> bool:
        return bool(self.queue or any(self.held.values()))

    def release_probe(self, cell: Cell, run_failed: bool) -> None:
        """Unblock (or park) the cells held behind a probe."""
        from repro.sim.runner import _circuit_open_report

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
        from repro.sim.runner import _circuit_open_report

        tracer = obs_trace.active_tracer()
        resilience = job.resilience
        open_benchmarks: set = set()
        probed: set = set()
        if len(job.pending) > 1:
            # Warm the base cache with one lane-batched kernel call; a
            # failed prefetch only costs the optimization (each cell's
            # scalar path reproduces any error under its retry policy).
            try:
                job.runner.prefetch_base_batch(
                    job.pending,
                    timeout_s=resilience.timeout_s,
                    should_stop=job.drain.is_set,
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
            metrics, failure = job.runner._run_cell(
                name, job.technique, job.factory, resilience, base_seed=seed
            )
            if failure is not None:
                job.record_failure(cell, failure)
                if is_probe and resilience.circuit_breaker:
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
    (``max_worker_restarts``) and each event is recorded on the
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
        from repro.sim import runner as runner_module
        from repro.sim.runner import (
            _cell_key,
            _merge_worker_telemetry,
            _worker_lost_report,
            _worker_run_cell,
        )

        runner = job.runner
        resilience = job.resilience
        workers = self.workers
        tracer = obs_trace.active_tracer()
        registry = obs_metrics.active_registry()
        if job.progress is not None:
            for cell in job.grid:
                if cell in job.results:
                    job.progress(cell[0], job.results[cell])
        spec_blob = pickle.dumps(
            (
                runner.config,
                runner.supply_transform,
                runner.max_base_cache_entries,
                runner._trace_spec(resilience),
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        heartbeat = resilience.heartbeat_stale_s is not None
        executor = runner._ensure_executor(workers, heartbeat=heartbeat)

        cell_queue = _CellQueue(job, resilience.circuit_breaker)
        queue = cell_queue.queue

        inflight: Dict[object, Cell] = {}
        lost_cells: List[Cell] = []
        lost_detail = ""
        lost_counts: Dict[Cell, int] = {}
        # Each rebuild loses at least one in-flight cell, and each cell
        # is parked after max_worker_restarts losses, so this hard cap
        # can only bind if supervision itself misbehaves.
        rebuilds_left = (resilience.max_worker_restarts + 1) * max(
            1, len(job.pending)
        )
        pool_broken = False

        dispatch_ctx = obs_context.current_context()

        def submit(cell):
            name, seed = cell
            if dispatch_ctx is not None and tracer is not None:
                # Open a flow arrow to the worker's cell span; both sides
                # derive the same deterministic cell span id.
                cell_ctx = dispatch_ctx.child(
                    f"cell|{name}|{job.technique}|{seed}"
                )
                tracer.flow_start(cell_ctx.span_id)
            future = executor.submit(
                _worker_run_cell,
                spec_blob,
                job.factory,
                name,
                job.technique,
                seed,
                resilience.timeout_s,
                resilience.max_retries,
                resilience.backoff_base_s,
                resilience.backoff_max_s,
                ctx=None if dispatch_ctx is None else dispatch_ctx.to_dict(),
            )
            inflight[future] = cell

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
                if losses > resilience.max_worker_restarts:
                    abandon_cell(
                        cell,
                        losses,
                        f"abandoned after losing its worker {losses}"
                        f" time(s)"
                        f" (budget {resilience.max_worker_restarts});"
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
            runner._shutdown_executor()
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
            executor = runner._ensure_executor(workers, heartbeat=heartbeat)

        def drain_and_raise():
            deadline = time.monotonic() + resilience.drain_deadline_s
            while inflight and time.monotonic() < deadline:
                done, _ = futures_wait(
                    set(inflight),
                    timeout=runner_module._SUPERVISOR_POLL_S,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    cell = inflight.pop(future)
                    try:
                        metrics, failure, telemetry = future.result()
                    except BaseException:
                        continue  # lost to the drain; --resume recomputes
                    _merge_worker_telemetry(telemetry)
                    if failure is None:
                        name, seed = cell
                        job.results[cell] = metrics
                        job.cells[
                            _cell_key(
                                job.ordinal, name, job.technique, seed
                            )
                        ] = asdict(metrics)
            for future in inflight:
                future.cancel()
            if inflight:  # still running past the deadline: kill the pool
                runner._kill_workers()
            runner._shutdown_executor()
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
                    timeout=runner_module._SUPERVISOR_POLL_S,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    if heartbeat and not pool_broken:
                        stale = runner._stale_worker_pids(
                            resilience.heartbeat_stale_s
                        )
                        for pid in stale:
                            # Killing the worker breaks the pool; the
                            # normal lost-cell path rebuilds and
                            # requeues.
                            if tracer is not None:
                                tracer.instant(
                                    "heartbeat_stale_kill",
                                    cat=obs_trace.CAT_SUPERVISION,
                                    args={"pid": pid},
                                )
                            with contextlib.suppress(OSError):
                                import os

                                os.kill(pid, signal.SIGKILL)
                    continue
                for future in done:
                    cell = inflight.pop(future)
                    try:
                        metrics, failure, telemetry = future.result()
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
                    _merge_worker_telemetry(telemetry)
                    record_result(cell, metrics, failure)
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


def _spec_is_picklable(runner, factory) -> bool:
    """Whether the cell spec can cross a process boundary."""
    try:
        pickle.dumps(
            (runner.config, runner.supply_transform, factory),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    except Exception as error:
        warn_once(
            f"parallel sweep disabled: cell spec is not picklable"
            f" ({type(error).__name__}: {error}); running sequentially",
            stacklevel=5,
        )
        return False
    return True


def select_backend(runner, resilience, factory, n_pending) -> SweepBackend:
    """The backend this sweep runs on, chosen by ``resilience.workers``.

    More than one worker with more than one pending cell fans out to the
    process pool; anything else runs sequentially.  A cell spec that
    cannot pickle degrades to :class:`SequentialBackend` with a warning
    -- never silently change results, always run the sweep.
    """
    workers = min(resilience.workers, n_pending)
    if workers <= 1 or not _spec_is_picklable(runner, factory):
        return SequentialBackend()
    return ProcessPoolBackend(workers)
