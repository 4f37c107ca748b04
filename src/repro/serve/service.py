"""The sweep service: HTTP front end, scheduler, and drain discipline.

One asyncio event loop owns the listener, admission, scheduling and SSE
streams; each admitted job runs :meth:`BenchmarkRunner.sweep` on its own
worker thread (sweeps are blocking and CPU-bound; the process pool
already fans the cells out further when a spec asks for it).  The thread
talks back to the loop only through ``call_soon_threadsafe`` and through
the job's in-memory event buffer, so no cross-thread state is mutated
without the store lock.

Durability contract (the chaos scenarios assert all of it):

* every lifecycle transition is persisted through the v2 checkpoint
  discipline *before* it is visible over HTTP;
* a ``kill -9`` at any instant loses at most the in-flight cell: restart
  re-adopts running jobs to ``queued`` and their sweeps resume from their
  checkpoints, converging to byte-identical aggregates;
* SIGTERM drains: readiness flips to 503, new submissions are shed,
  running sweeps stop at the next cell barrier and are handed back to the
  queue, and the process exits 75 (``EX_TEMPFAIL``, matching
  :class:`SweepInterrupted`) if any job remains unfinished, else 0.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.obs import context as obs_context
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.errors import (
    JobSpecError,
    ReproError,
    ServeError,
    SweepInterrupted,
)
from repro.serve.admission import AdmissionPolicy
from repro.serve.http import (
    ClientGone,
    HttpError,
    Request,
    Response,
    read_request,
    send_sse_event,
    start_sse,
    write_response,
)
from repro.serve.jobs import JobRecord, JobStore, TERMINAL_STATES
from repro.serve.jobspec import JobSpec, controller_factory
from repro.sim.runner import (
    BenchmarkRunner,
    ResilienceConfig,
    SweepConfig,
    _atomic_write_json,
)

__all__ = ["ServeConfig", "SweepService"]

#: How often SSE streams and the drain watchdog poll job state, seconds.
_POLL_S = 0.05

#: BSD sysexits EX_TEMPFAIL, matching SweepInterrupted.exit_code: the
#: drain left resumable work behind, so "retry later" is exactly right.
EXIT_INCOMPLETE_DRAIN = SweepInterrupted.exit_code


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro serve`` configures."""

    data_dir: str
    host: str = "127.0.0.1"
    port: int = 8537
    #: running jobs (each one worker thread); queued jobs wait
    max_running: int = 2
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    #: per-request head/body read deadline (slow-loris guard)
    request_timeout_s: float = 5.0
    #: SIGTERM drain: how long to wait for running sweeps to reach a cell
    #: barrier and checkpoint before giving up and exiting 75 anyway
    drain_deadline_s: float = 30.0
    #: optional JSON file written once the listener is bound (chaos and CI
    #: use it with --port 0 to learn the ephemeral port and pid)
    ready_file: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_running < 1:
            raise ServeError(
                f"max_running must be >= 1, got {self.max_running!r}"
            )
        if self.request_timeout_s <= 0:
            raise ServeError(
                f"request_timeout_s must be positive,"
                f" got {self.request_timeout_s!r}"
            )
        if self.drain_deadline_s <= 0:
            raise ServeError(
                f"drain_deadline_s must be positive,"
                f" got {self.drain_deadline_s!r}"
            )


class _ActiveJob:
    """Loop-side handle on one running job's thread and live buffers."""

    def __init__(self, record: JobRecord):
        self.record = record
        self.stop = threading.Event()
        self.thread: Optional[threading.Thread] = None
        #: monotonically growing progress events; SSE streams keep their
        #: own cursor into it (append-only, so no locking beyond the GIL)
        self.events: List[dict] = []


class SweepService:
    """See the module docstring; one instance per process."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.store = JobStore(config.data_dir)
        self.registry = obs.ensure_registry()
        self.policy = config.admission
        self._active: Dict[str, _ActiveJob] = {}
        #: finished jobs' progress buffers, so an SSE stream that lags the
        #: final cell still flushes every event before its "end" frame
        self._event_history: Dict[str, List[dict]] = {}
        self._queue: List[str] = []  # job ids, FIFO by admission order
        self._draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()
        self.exit_code = 0
        self.bound_port: Optional[int] = None
        self._started_monotonic = time.monotonic()

    # ------------------------------------------------------------------
    # Metrics helpers
    # ------------------------------------------------------------------
    def _count_request(self, method: str, route: str, status: int) -> None:
        self.registry.counter(
            "serve_requests_total", help="HTTP requests by route and status"
        ).inc(labels={
            "method": method, "route": route, "status": str(status),
        })

    def _sync_gauges(self) -> None:
        self.registry.gauge(
            "serve_queue_depth", help="jobs waiting for a worker slot"
        ).set(len(self._queue))
        self.registry.gauge(
            "serve_running_jobs", help="jobs currently executing"
        ).set(len(self._active))
        self.registry.gauge(
            "serve_draining", help="1 while the service is draining"
        ).set(1.0 if self._draining else 0.0)

    # ------------------------------------------------------------------
    # Admission bookkeeping
    # ------------------------------------------------------------------
    def _population(self):
        """Queued/running counts, globally and per tenant."""
        tenant_active: Dict[str, int] = {}
        tenant_cells: Dict[str, int] = {}
        for job_id in self._queue:
            record = self.store.get(job_id)
            if record is None:
                continue
            tenant_active[record.tenant] = (
                tenant_active.get(record.tenant, 0) + 1
            )
            tenant_cells[record.tenant] = (
                tenant_cells.get(record.tenant, 0) + record.total_cells
            )
        for active in self._active.values():
            record = active.record
            tenant_active[record.tenant] = (
                tenant_active.get(record.tenant, 0) + 1
            )
            tenant_cells[record.tenant] = (
                tenant_cells.get(record.tenant, 0) + record.total_cells
            )
        return (
            len(self._queue), len(self._active), tenant_active, tenant_cells
        )

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _record_payload(self, record: JobRecord) -> dict:
        return record.to_dict()

    def _handle_submit(self, request: Request) -> Response:
        if self._draining:
            raise HttpError(
                503, "service is draining; resubmit after restart",
                headers={"Retry-After": "1"},
            )
        try:
            spec = JobSpec.from_dict(request.json())
        except JobSpecError as error:
            raise HttpError(400, str(error))
        idempotency_key = request.headers.get("idempotency-key")
        if idempotency_key is not None:
            existing = self.store.find_idempotent(spec.tenant, idempotency_key)
            if existing is not None:
                # A retried submission must always get its original job
                # back, whatever state that job has reached since.
                self.registry.counter(
                    "serve_idempotent_replays_total",
                    help="submissions answered from the idempotency map",
                ).inc()
                return Response(200, self._record_payload(existing))
        queued, running, tenant_active, tenant_cells = self._population()
        decision = self.policy.decide(
            spec.tenant, spec.n_cells, queued, running,
            tenant_active, tenant_cells,
        )
        if not decision.admitted:
            self.registry.counter(
                "serve_admission_rejections_total",
                help="submissions shed by admission control, by reason",
            ).inc(labels={"reason": decision.reason})
            raise HttpError(
                429,
                f"admission rejected: {decision.reason}",
                headers={"Retry-After": str(decision.retry_after_s)},
            )
        record = self.store.create(
            tenant=spec.tenant,
            spec=spec.to_dict(),
            total_cells=spec.n_cells,
            idempotency_key=idempotency_key,
        )
        # Root the job's trace context: under the client's traceparent
        # when one was sent, else a fresh trace named after the job.  The
        # context is persisted on the record so a crash-adopted job keeps
        # its ids, and the job thread chains the sweep under it.
        tracer = obs.active_tracer()
        header_ctx = obs_context.TraceContext.from_traceparent(
            request.headers.get("traceparent")
        )
        if tracer is not None or header_ctx is not None:
            request_ctx = (
                header_ctx.child("http|POST|/jobs")
                if header_ctx is not None
                else obs_context.TraceContext.root(f"job|{record.job_id}")
            )
            request.trace_context = request_ctx
            job_ctx = request_ctx.child(f"job|{record.job_id}")
            record = self.store.update(
                record.job_id,
                lambda r: setattr(r, "trace", job_ctx.to_dict()),
            )
            if tracer is not None:
                tracer.flow_start(job_ctx.span_id)
        self._queue.append(record.job_id)
        self.registry.counter(
            "serve_jobs_submitted_total", help="admitted job submissions"
        ).inc(labels={"tenant": spec.tenant})
        self._kick_scheduler()
        return Response(201, self._record_payload(record))

    def _get_record(self, job_id: str) -> JobRecord:
        record = self.store.get(job_id)
        if record is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        return record

    def _handle_get_job(self, job_id: str) -> Response:
        return Response(200, self._record_payload(self._get_record(job_id)))

    def _handle_list_jobs(self) -> Response:
        return Response(200, {
            "jobs": [
                self._record_payload(record)
                for record in self.store.list_records()
            ],
        })

    def _handle_result(self, job_id: str) -> Response:
        record = self._get_record(job_id)
        if record.state != "done":
            raise HttpError(
                409,
                f"job {job_id} is {record.state}, not done;"
                f" no result to fetch",
            )
        return Response(200, {
            "job_id": record.job_id,
            "result": record.result,
        })

    def _handle_cancel(self, job_id: str) -> Response:
        record = self._get_record(job_id)
        if record.terminal:
            raise HttpError(
                409, f"job {job_id} is already {record.state}"
            )
        if record.state == "queued" and job_id in self._queue:
            self._queue.remove(job_id)
            record = self.store.transition(
                job_id, "cancelled",
                mutate=lambda r: setattr(r, "finished_at", time.time()),
            )
        else:
            # Running: flag the drain and let the sweep stop at its next
            # cell barrier; the worker thread performs the terminal
            # transition so the checkpoint flush and the state change
            # cannot race.
            self.store.update(
                job_id,
                lambda r: setattr(r, "cancel_requested", True),
            )
            active = self._active.get(job_id)
            if active is not None:
                active.stop.set()
                record = self.store.transition(job_id, "draining")
        self._sync_gauges()
        return Response(200, self._record_payload(record))

    def _handle_metrics(self) -> Response:
        self._sync_gauges()
        return Response(
            200,
            raw=self.registry.to_prometheus().encode("utf-8"),
            content_type="text/plain; version=0.0.4",
        )

    def _handle_health(self) -> Response:
        return Response(200, {"status": "ok"})

    def _handle_debug_vars(self) -> Response:
        """Lightweight introspection snapshot (expvar-style)."""
        self._sync_gauges()
        return Response(200, {
            "pid": os.getpid(),
            "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
            "draining": self._draining,
            "queue_depth": len(self._queue),
            "running_jobs": sorted(self._active),
            "jobs_total": len(self.store.list_records()),
            "tracing": obs.active_tracer() is not None,
            "profiling": obs_profile.active_profiler() is not None,
            "metrics": self.registry.to_dict(),
        })

    def _handle_debug_profile(self) -> Response:
        """Speedscope snapshot of the live profiler (this process only)."""
        profiler = obs_profile.active_profiler()
        if profiler is None:
            raise HttpError(
                409, "profiler is off; start the service with --profile-out"
            )
        processes = [{
            "pid": os.getpid(),
            "label": profiler.process_label,
            "samples": [
                [label, list(stack), count]
                for (label, stack), count in sorted(
                    profiler.snapshot().items()
                )
            ],
        }]
        return Response(
            200,
            raw=json.dumps(
                obs_profile.speedscope_payload(processes),
                separators=(",", ":"),
            ).encode("utf-8"),
            content_type="application/json",
        )

    def _handle_ready(self) -> Response:
        if self._draining:
            raise HttpError(503, "draining")
        return Response(200, {
            "status": "ready",
            "queued": len(self._queue),
            "running": len(self._active),
        })

    async def _handle_events(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        """Stream job progress as SSE until the job reaches a terminal
        state or the client goes away (which leaves the job untouched)."""
        record = self._get_record(job_id)
        await start_sse(writer)
        events_counter = self.registry.counter(
            "serve_sse_events_total", help="SSE frames sent to clients"
        )
        cursor = 0
        await send_sse_event(writer, "state", self._record_payload(record))
        events_counter.inc()
        while True:
            record = self.store.get(job_id)
            active = self._active.get(job_id)
            buffered = (
                active.events if active is not None
                else self._event_history.get(job_id, [])
            )
            while cursor < len(buffered):
                await send_sse_event(writer, "cell", buffered[cursor])
                events_counter.inc()
                cursor += 1
            if record is None or record.terminal:
                await send_sse_event(
                    writer, "end", self._record_payload(record)
                )
                events_counter.inc()
                return
            await asyncio.sleep(_POLL_S)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> Optional[str]:
        """Route one request; returns the route label for metrics."""
        method, path = request.method, request.path
        parts = [p for p in path.split("/") if p]
        if path == "/healthz" and method == "GET":
            await write_response(writer, self._handle_health())
            return "/healthz"
        if path == "/readyz" and method == "GET":
            await write_response(writer, self._handle_ready())
            return "/readyz"
        if path == "/metrics" and method == "GET":
            await write_response(writer, self._handle_metrics())
            return "/metrics"
        if path == "/debug/vars" and method == "GET":
            await write_response(writer, self._handle_debug_vars())
            return "/debug/vars"
        if path == "/debug/profile" and method == "GET":
            await write_response(writer, self._handle_debug_profile())
            return "/debug/profile"
        if path == "/jobs" and method == "POST":
            await write_response(writer, self._handle_submit(request))
            return "/jobs"
        if path == "/jobs" and method == "GET":
            await write_response(writer, self._handle_list_jobs())
            return "/jobs"
        if len(parts) == 2 and parts[0] == "jobs" and method == "GET":
            await write_response(writer, self._handle_get_job(parts[1]))
            return "/jobs/{id}"
        if len(parts) == 3 and parts[0] == "jobs":
            job_id, tail = parts[1], parts[2]
            if tail == "result" and method == "GET":
                await write_response(writer, self._handle_result(job_id))
                return "/jobs/{id}/result"
            if tail == "cancel" and method == "POST":
                await write_response(writer, self._handle_cancel(job_id))
                return "/jobs/{id}/cancel"
            if tail == "events" and method == "GET":
                await self._handle_events(writer, job_id)
                return "/jobs/{id}/events"
        raise HttpError(
            405 if path in ("/jobs", "/healthz", "/readyz", "/metrics",
                            "/debug/vars", "/debug/profile")
            else 404,
            f"no route for {method} {path}",
        )

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        route, status = "unparsed", 500
        method = "?"
        request = None
        started = time.monotonic()
        try:
            request = await read_request(
                reader, self.config.request_timeout_s
            )
            if request is None:
                return
            method = request.method
            route = await self._dispatch(request, writer) or request.path
            status = 200
        except HttpError as error:
            status = error.status
            with contextlib.suppress(ClientGone):
                await write_response(writer, Response(
                    error.status, {"error": error.message},
                    headers=error.headers,
                ))
        except ClientGone:
            status = 499  # client closed before the response finished
        except Exception as error:  # noqa: BLE001 - last-resort guard
            status = 500
            obs.get_logger("serve").exception("request failed: %s", error)
            with contextlib.suppress(ClientGone, ConnectionError):
                await write_response(writer, Response(
                    500, {"error": f"{type(error).__name__}: {error}"}
                ))
        finally:
            self._count_request(method, route, status)
            tracer = obs.active_tracer()
            if tracer is not None and request is not None:
                # Written after the fact (the status is only known here);
                # submits carry the context rooted in _handle_submit so
                # the job span chains under this request span.
                tracer.span_at(
                    f"http {method} {route}",
                    cat=obs_trace.CAT_SERVE,
                    started=started,
                    ended=time.monotonic(),
                    args={"status": status, "path": request.path},
                    ctx=getattr(request, "trace_context", None),
                )
            with contextlib.suppress(ConnectionError):
                writer.close()
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(writer.wait_closed(), timeout=1.0)

    # ------------------------------------------------------------------
    # Scheduling and job execution
    # ------------------------------------------------------------------
    def _kick_scheduler(self) -> None:
        while (
            self._queue
            and len(self._active) < self.config.max_running
            and not self._draining
        ):
            job_id = self._queue.pop(0)
            record = self.store.get(job_id)
            if record is None or record.state != "queued":
                continue
            try:
                spec = JobSpec.from_dict(record.spec)
            except JobSpecError as exc:
                # A persisted spec that no longer validates (schema drift
                # across an upgrade): fail it cleanly, keep scheduling.
                self.store.transition(job_id, "failed", mutate=lambda r: (
                    setattr(r, "finished_at", time.time()),
                    setattr(r, "error", {
                        "type": type(exc).__name__, "message": str(exc),
                    }),
                ))
                continue
            if (
                spec.deadline_s is not None
                and time.time() > record.submitted_at + spec.deadline_s
            ):
                # Nobody is waiting for this result any more; fail it
                # without burning a worker slot on it.
                self.store.transition(job_id, "failed", mutate=lambda r: (
                    setattr(r, "finished_at", time.time()),
                    setattr(r, "error", {
                        "type": "DeadlineExceeded",
                        "message": (
                            f"deadline_s={spec.deadline_s} lapsed while"
                            f" queued"
                        ),
                    }),
                ))
                self.registry.counter(
                    "serve_jobs_total", help="jobs by terminal state"
                ).inc(labels={"state": "failed"})
                continue
            active = _ActiveJob(record)
            self._active[job_id] = active
            self.store.transition(job_id, "running", mutate=lambda r: (
                setattr(r, "started_at", time.time()),
            ))
            active.thread = threading.Thread(
                target=self._run_job,
                args=(active, spec),
                name=f"job-{job_id}",
                daemon=True,
            )
            active.thread.start()
        self._sync_gauges()

    def _run_job(self, active: _ActiveJob, spec: JobSpec) -> None:
        """Worker thread: one sweep, checkpointed, stoppable, reported."""
        job_id = active.record.job_id
        checkpoint = self.store.checkpoint_path(job_id)
        outcome = "failed"
        result: Optional[dict] = None
        error: Optional[dict] = None
        job_ctx = obs_context.TraceContext.from_dict(active.record.trace)
        tracer = obs.active_tracer()
        try:
            factory = controller_factory(spec)
            resilience = ResilienceConfig(
                checkpoint_path=checkpoint,
                resume=os.path.exists(checkpoint),
                max_retries=spec.max_retries,
                workers=spec.workers,
            )
            config = SweepConfig(
                n_cycles=spec.n_cycles, warmup_cycles=spec.warmup_cycles
            )

            def on_progress(benchmark: str, metrics) -> None:
                record = active.record
                record.completed_cells += 1
                active.events.append({
                    "benchmark": benchmark,
                    "status": "completed",
                    "slowdown": metrics.slowdown,
                    "completed_cells": record.completed_cells,
                    "failed_cells": record.failed_cells,
                    "total_cells": record.total_cells,
                })
                if spec.pace_s:
                    time.sleep(spec.pace_s)

            def on_failure(cell, report) -> None:
                record = active.record
                record.failed_cells += 1
                active.events.append({
                    "benchmark": cell[0],
                    "status": "failed",
                    "error_type": report.error_type,
                    "completed_cells": record.completed_cells,
                    "failed_cells": record.failed_cells,
                    "total_cells": record.total_cells,
                })

            with contextlib.ExitStack() as stack:
                if job_ctx is not None:
                    # The sweep chains under the persisted job context so
                    # its spans -- across every backend and process --
                    # share the submit request's trace_id.
                    stack.enter_context(obs_context.use_context(job_ctx))
                    if tracer is not None:
                        stack.enter_context(tracer.span(
                            f"job {job_id}",
                            cat=obs_trace.CAT_SERVE,
                            args={
                                "job_id": job_id,
                                "technique": spec.technique,
                            },
                            ctx=job_ctx,
                        ))
                        tracer.flow_end(job_ctx.span_id)
                runner = stack.enter_context(BenchmarkRunner(config))
                summary = runner.sweep(
                    factory,
                    benchmarks=list(spec.benchmarks),
                    seeds=list(spec.seeds),
                    resilience=resilience,
                    progress=on_progress,
                    stop=active.stop,
                    on_failure=on_failure,
                )
            result = {
                # The dataclass fields only: byte-identical across resumed
                # / adopted / uninterrupted executions (timings and
                # incidents are environment diagnostics, kept separate).
                "summary": dataclasses.asdict(summary),
                "timings": getattr(summary, "timings", None),
                "incidents": [
                    dataclasses.asdict(incident)
                    for incident in getattr(summary, "incidents", ())
                ],
            }
            outcome = "done"
        except SweepInterrupted:
            # Stopped at a cell barrier: cancellation if the client asked,
            # otherwise a service drain handing the job back to the queue.
            outcome = (
                "cancelled" if active.record.cancel_requested else "queued"
            )
        except ReproError as exc:
            error = {"type": type(exc).__name__, "message": str(exc)}
        except Exception as exc:  # noqa: BLE001 - job must not kill service
            error = {"type": type(exc).__name__, "message": str(exc)}
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(
                self._finish_job, job_id, outcome, result, error
            )

    def _finish_job(
        self,
        job_id: str,
        outcome: str,
        result: Optional[dict],
        error: Optional[dict],
    ) -> None:
        """Loop side of job completion: persist, free the slot, reschedule."""
        active = self._active.pop(job_id, None)
        if active is not None:
            self._event_history[job_id] = active.events

        def mutate(record: JobRecord) -> None:
            if outcome == "queued":
                record.started_at = None
            else:
                record.finished_at = time.time()
            if result is not None:
                record.result = result
            if error is not None:
                record.error = error
            if active is not None:
                record.completed_cells = active.record.completed_cells
                record.failed_cells = active.record.failed_cells

        self.store.transition(job_id, outcome, mutate=mutate)
        if outcome == "queued":
            self._queue.append(job_id)
        else:
            self.registry.counter(
                "serve_jobs_total", help="jobs by terminal state"
            ).inc(labels={"state": outcome})
        self._kick_scheduler()

    # ------------------------------------------------------------------
    # Drain and lifecycle
    # ------------------------------------------------------------------
    def initiate_drain(self) -> None:
        """SIGTERM/SIGINT: stop admitting, stop sweeps, then exit."""
        if self._draining:
            return
        self._draining = True
        self._sync_gauges()
        for active in self._active.values():
            active.stop.set()
        if self._loop is not None:
            self._loop.create_task(self._drain_and_stop())

    async def _drain_and_stop(self) -> None:
        deadline = time.monotonic() + self.config.drain_deadline_s
        while time.monotonic() < deadline and self._active:
            await asyncio.sleep(_POLL_S)
        # Anything still queued (or stuck running past the deadline) makes
        # the drain incomplete: exit EX_TEMPFAIL so supervisors restart us
        # and recovery resumes the leftovers.
        leftovers = [
            record for record in self.store.list_records()
            if not record.terminal
        ]
        self.exit_code = EXIT_INCOMPLETE_DRAIN if leftovers else 0
        self._shutdown.set()

    def _write_ready_file(self) -> None:
        if self.config.ready_file is None:
            return
        _atomic_write_json(self.config.ready_file, {
            "host": self.config.host,
            "port": self.bound_port,
            "pid": os.getpid(),
            "url": f"http://{self.config.host}:{self.bound_port}",
        })

    async def run(self) -> int:
        """Serve until SIGTERM/SIGINT (or ``initiate_drain``); returns the
        process exit code (0 clean, 75 incomplete drain)."""
        self._loop = asyncio.get_running_loop()
        adopted = self.store.recover()
        for path in self.store.corrupt_files:
            obs.get_logger("serve").warning(
                "quarantined corrupt job record: %s", path
            )
            self.registry.counter(
                "serve_corrupt_records_total",
                help="job records quarantined during recovery",
            ).inc()
        for record in self.store.list_records():
            if record.state == "queued":
                self._queue.append(record.job_id)
        if adopted:
            self.registry.counter(
                "serve_jobs_adopted_total",
                help="in-flight jobs re-adopted after a crash",
            ).inc(len(adopted))
            obs.get_logger("serve").warning(
                "adopted %d in-flight job(s) from a previous process",
                len(adopted),
            )
        if threading.current_thread() is threading.main_thread():
            with contextlib.suppress(NotImplementedError, RuntimeError):
                for sig in (signal.SIGTERM, signal.SIGINT):
                    self._loop.add_signal_handler(sig, self.initiate_drain)
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]
        self._write_ready_file()
        self._sync_gauges()
        self._kick_scheduler()
        try:
            await self._shutdown.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            # Give finished threads a moment to join; daemon threads past
            # the deadline are abandoned (their jobs already counted as
            # leftovers in the exit code).
            for active in list(self._active.values()):
                if active.thread is not None:
                    active.thread.join(timeout=1.0)
        return self.exit_code
