"""Batch running: benchmark x technique sweeps with Table 3/4/5 aggregation.

A *controller factory* is any callable ``(supply_config, processor_config)
-> NoiseController``; the runner builds a fresh processor and supply per
run (so runs are independent and deterministic), executes the base
configuration once per benchmark, and reports each technique's metrics
relative to it.

Sweeps are *resilient*: a :class:`ResilienceConfig` adds per-cell
wall-clock timeouts, bounded retry with deterministic re-seeding, and a
JSON checkpoint (:mod:`repro.sim.checkpoint`) written after every
completed (benchmark, technique, seed) cell, so a killed sweep resumes
exactly where it stopped (see ``docs/robustness.md``).  Cells that
exhaust their retry budget become structured :class:`FailureReport`
entries on the :class:`TechniqueSummary` instead of aborting the whole
sweep.

Sweeps are also *parallel*: ``ResilienceConfig(workers=N)`` dispatches the
(benchmark, seed) cell grid to a ``ProcessPoolExecutor``.  Each worker
process rebuilds its own :class:`BenchmarkRunner` from a picklable spec --
no simulator state ever crosses a process boundary -- and keeps a warm
base-run cache across the cells it executes.  Cells are deterministic and
independent (retry attempt ``k`` always reseeds to ``seed + 104729 * k``),
so the parallel backend produces aggregates, checkpoints and failure
reports bit-identical to the sequential one: checkpoints are written from
the parent in completion order but keyed by the same cell keys, and rows
are always aggregated in grid order.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import random
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import (
    PowerSupplyConfig,
    ProcessorConfig,
    TABLE1_PROCESSOR,
    TABLE1_SUPPLY,
)
from repro.core.controller import NoiseController, NullController
from repro.errors import (
    ConfigurationError,
    FaultError,
    HarnessError,
    WorkerLostError,
)
from repro import obs
from repro.obs import context as obs_context
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.power.supply import PowerSupply
from repro.sim.backends import SweepJob, select_backend
from repro.sim.checkpoint import SweepCheckpoint
from repro.sim.metrics import RelativeMetrics, SimulationResult
from repro.sim.simulation import Simulation
from repro.uarch.processor import Processor
from repro.uarch.workloads import SPEC2K

__all__ = [
    "SweepConfig",
    "ResilienceConfig",
    "FailureReport",
    "TechniqueSummary",
    "SeedStatistics",
    "BenchmarkRunner",
    "summarize",
    "DEFAULT_RESILIENCE",
]

ControllerFactory = Callable[[PowerSupplyConfig, ProcessorConfig], NoiseController]
SupplyTransform = Callable[[PowerSupply, str], PowerSupply]

#: Process-wide fallback resilience, installed temporarily by
#: :func:`repro.experiments.registry.run_experiment` so experiments that
#: build their own runners deep inside still honour ``--resume`` /
#: ``--timeout-s`` / ``--max-retries`` / ``--workers`` without threading a
#: parameter through every experiment signature.
DEFAULT_RESILIENCE: Optional["ResilienceConfig"] = None

#: Seed stride between retry attempts: a failed cell re-runs on a freshly
#: regenerated trace whose seed is a deterministic function of (profile
#: seed, attempt), so retries are reproducible run to run.
_RESEED_STRIDE = 104_729

#: How often the parallel supervisor wakes to check heartbeats and drain
#: requests while no future has completed, in seconds.
_SUPERVISOR_POLL_S = 0.2


@dataclass(frozen=True)
class SweepConfig:
    """How long and on what hardware to run each benchmark."""

    n_cycles: int = 60_000
    warmup_cycles: int = 2_000
    supply: PowerSupplyConfig = TABLE1_SUPPLY
    processor: ProcessorConfig = TABLE1_PROCESSOR
    trace_instructions: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_cycles <= 0:
            raise ConfigurationError("n_cycles must be positive")
        if self.warmup_cycles < 0:
            raise ConfigurationError("warmup_cycles must be non-negative")
        if self.trace_instructions is not None and self.trace_instructions <= 0:
            raise ConfigurationError(
                "trace_instructions must be positive when set"
            )

    def instructions(self) -> int:
        if self.trace_instructions is not None:
            return self.trace_instructions
        # Enough instructions that no workload wraps more than a few times.
        return max(50_000, int((self.n_cycles + self.warmup_cycles) * 4.5))


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault tolerance and execution backend for a sweep."""

    #: wall-clock budget per (benchmark, technique, seed) cell; None = none
    timeout_s: Optional[float] = None
    #: extra attempts after the first, each on a deterministically re-seeded
    #: trace (seed = profile seed + 104729 * attempt)
    max_retries: int = 0
    #: JSON file updated after every completed cell; None disables
    checkpoint_path: Optional[str] = None
    #: load the checkpoint and skip already-completed cells
    resume: bool = False
    #: worker processes executing sweep cells: more than one fans out to
    #: the local process pool; 0 and 1 run in-process (sequential)
    workers: int = 1
    #: a parallel worker whose current cell has not progressed for this
    #: many seconds is presumed hung, killed, and its cell requeued;
    #: None disables heartbeat supervision
    heartbeat_stale_s: Optional[float] = None
    #: how many times one cell may be requeued after losing its worker
    #: (killed, OOM'd, or heartbeat-stale) before it is parked as a
    #: WorkerLostError failure
    max_worker_restarts: int = 2
    #: first-retry backoff delay; attempt k sleeps base * 2^(k-1) seconds
    #: scaled by deterministic jitter in [0.5, 1.5); 0 disables sleeping
    backoff_base_s: float = 0.0
    #: ceiling on any single backoff sleep
    backoff_max_s: float = 30.0
    #: park the remaining (benchmark, seed) cells of a benchmark whose
    #: first pending cell exhausted its retry budget, instead of burning
    #: the full budget once per seed
    circuit_breaker: bool = True
    #: after SIGTERM/SIGINT, how long the parallel drain waits for
    #: in-flight cells before killing the pool and exiting resumable
    drain_deadline_s: float = 10.0
    #: directory of the content-addressed trace record/replay store
    #: (:mod:`repro.trace`): base-schedule cells record their current
    #: trace on the first run of a front end and replay it (bit-exactly)
    #: afterwards; None disables record/replay entirely
    trace_store_path: Optional[str] = None
    #: master switch for the record/replay layer; ``False`` (the
    #: ``--no-replay`` flag) runs every cell as a full simulation and
    #: records nothing, even when a store path is configured
    replay: bool = True

    def __post_init__(self) -> None:
        # Validation happens at construction -- with ResilienceConfigError
        # (both a ConfigurationError and a HarnessError) and a message
        # naming the offending knob and value -- so a bad config fails the
        # command immediately instead of failing mid-sweep.
        from repro.errors import ResilienceConfigError

        def reject(message: str) -> None:
            raise ResilienceConfigError(message)

        if self.timeout_s is not None and self.timeout_s <= 0:
            reject(
                f"timeout_s must be positive when set, got {self.timeout_s!r}"
            )
        if self.max_retries < 0:
            reject(
                f"max_retries must be non-negative, got {self.max_retries!r}"
            )
        if self.resume and self.checkpoint_path is None:
            reject("resume requires a checkpoint_path")
        if self.workers < 0:
            reject(
                f"workers must be non-negative, got {self.workers!r}"
                f" (0 or 1 = sequential, N = fan out)"
            )
        if self.heartbeat_stale_s is not None and self.heartbeat_stale_s <= 0:
            reject(
                f"heartbeat_stale_s must be positive when set,"
                f" got {self.heartbeat_stale_s!r}"
            )
        if self.max_worker_restarts < 0:
            reject(
                f"max_worker_restarts must be non-negative,"
                f" got {self.max_worker_restarts!r}"
            )
        if self.backoff_base_s < 0:
            reject(
                f"backoff_base_s must be non-negative,"
                f" got {self.backoff_base_s!r}"
            )
        if self.backoff_max_s < 0:
            reject(
                f"backoff_max_s must be non-negative,"
                f" got {self.backoff_max_s!r}"
            )
        if self.backoff_base_s > 0 and self.backoff_max_s < self.backoff_base_s:
            reject(
                f"backoff_max_s ({self.backoff_max_s!r}) must be at least"
                f" backoff_base_s ({self.backoff_base_s!r})"
            )
        if self.drain_deadline_s <= 0:
            reject(
                f"drain_deadline_s must be positive,"
                f" got {self.drain_deadline_s!r}"
            )
        if self.trace_store_path is not None and not str(self.trace_store_path):
            reject("trace_store_path must be a non-empty path when set")


@dataclass(frozen=True)
class FailureReport:
    """One sweep cell that did not produce a result.

    ``skipped`` distinguishes cells that were never attempted -- parked by
    the circuit breaker after their benchmark's probe cell failed -- from
    cells that genuinely exhausted their retry budget (``skipped=False``).
    Worker-supervision incidents (a killed or heartbeat-stale worker, with
    the cell later requeued) reuse this shape on the summary's
    ``incidents`` attribute.
    """

    benchmark: str
    technique: str
    seed: Optional[int]
    attempts: int
    error_type: str
    message: str
    skipped: bool = False


@dataclass(frozen=True)
class SeedStatistics:
    """Mean / spread of one technique on one benchmark across trace seeds.

    Seeds regenerate the synthetic trace from the same statistical profile,
    so the spread measures sensitivity to the particular random instruction
    stream rather than to the workload's character.
    """

    benchmark: str
    technique: str
    n_seeds: int
    mean_slowdown: float
    std_slowdown: float
    mean_energy_delay: float
    std_energy_delay: float
    max_violation_fraction: float
    runs: Tuple[RelativeMetrics, ...]


@dataclass(frozen=True)
class TechniqueSummary:
    """Aggregate of one technique over many benchmarks (a table row).

    Summaries returned by :meth:`BenchmarkRunner.sweep` additionally carry
    a ``timings`` attribute -- a per-phase wall-clock breakdown (setup /
    execute / checkpoint_io / aggregate / total seconds plus the worker
    count and cell counts) -- and an ``incidents`` attribute, the tuple of
    supervision events (dead or heartbeat-stale workers that were killed
    and their cells requeued) as :class:`FailureReport`-shaped records.
    Both are diagnostics attached outside the dataclass fields, so equality
    and serialisation of summaries stay environment-independent (a resumed
    or worker-crashed-and-requeued sweep still compares byte-identical to
    an undisturbed one).
    """

    technique: str
    avg_slowdown: float
    worst_slowdown: float
    worst_benchmark: str
    apps_over_15_percent: int
    avg_energy_delay: float
    avg_first_level_fraction: float
    avg_second_level_fraction: float
    total_violation_cycles: int
    per_benchmark: Tuple[RelativeMetrics, ...]
    failures: Tuple[FailureReport, ...] = ()


# ----------------------------------------------------------------------
# Failure reports
# ----------------------------------------------------------------------

def _circuit_open_report(
    benchmark: str, technique: str, seed: Optional[int]
) -> FailureReport:
    """A cell parked (never attempted) by the per-benchmark circuit breaker."""
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
) -> FailureReport:
    """A cell abandoned after repeatedly losing its worker process."""
    return FailureReport(
        benchmark=benchmark,
        technique=technique,
        seed=seed,
        attempts=losses,
        error_type=WorkerLostError.__name__,
        message=detail,
    )


# ----------------------------------------------------------------------
# Per-cell timeouts
# ----------------------------------------------------------------------

def _call_with_alarm(fn: Callable[[], object], timeout_s: float):
    """Interrupt ``fn`` with SIGALRM after ``timeout_s`` (main thread only).

    The interval timer preempts the running cell in place -- no helper
    thread is created, so a timed-out cell leaves nothing behind.  The
    previous handler and timer are restored on exit; a pre-existing
    ITIMER_REAL is re-armed with whatever time it had left (minus the
    cell's elapsed time), so an ambient timer is delayed at worst, never
    silently cancelled.
    """

    def on_alarm(signum, frame):
        raise FaultError(
            f"run exceeded the wall-clock timeout of {timeout_s:g} s"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    started = time.monotonic()
    prev_delay, prev_interval = signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if prev_delay > 0.0:
            remaining = prev_delay - (time.monotonic() - started)
            # An ambient timer that came due while the cell ran still has
            # to fire: deliver it almost immediately rather than dropping it.
            signal.setitimer(
                signal.ITIMER_REAL, max(remaining, 1e-6), prev_interval
            )


def _call_with_thread(fn: Callable[[], object], timeout_s: float):
    """Legacy timeout for contexts where SIGALRM is unavailable.

    The work runs on a daemon thread; on expiry the thread is abandoned
    (Python offers no preemptive kill off the main thread) and a
    :class:`FaultError` raised.
    """
    outcome: dict = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as error:  # propagate to the caller's thread
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise FaultError(
            f"run exceeded the wall-clock timeout of {timeout_s:g} s"
        )
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _call_with_timeout(fn: Callable[[], object], timeout_s: Optional[float]):
    """Run ``fn`` bounded by ``timeout_s`` of wall-clock time.

    On the main thread of a process (the sequential sweep loop, and every
    pool worker) the bound is enforced with an interval timer, which
    preempts the cell without spawning -- or leaking -- any thread.  Off
    the main thread, or where SIGALRM does not exist, the old abandon-a-
    daemon-thread fallback applies.  Without a timeout, runs inline.
    """
    if timeout_s is None:
        return fn()
    if (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    ):
        return _call_with_alarm(fn, timeout_s)
    return _call_with_thread(fn, timeout_s)


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


def _maybe_span(tracer, name: str, args: Optional[dict] = None):
    """A tracer span, or an inert context when tracing is disabled.

    Either way the ``with`` statement binds a mutable args dict, so
    instrumented code can attach results unconditionally.
    """
    if tracer is None:
        return contextlib.nullcontext(dict(args or {}))
    return tracer.span(name, cat=obs_trace.CAT_PHASE, args=args)


# ----------------------------------------------------------------------
# Retry backoff and graceful-drain plumbing
# ----------------------------------------------------------------------

def _backoff_delay_s(
    technique: str,
    benchmark: str,
    seed: Optional[int],
    attempt: int,
    base_s: float,
    max_s: float,
) -> float:
    """Deterministic exponential backoff with seeded jitter.

    Attempt ``k`` (k >= 1) sleeps ``base * 2^(k-1)`` seconds, capped at
    ``max_s``, scaled by a jitter factor in [0.5, 1.5) drawn from an RNG
    seeded on the cell identity -- so two runs of the same sweep back off
    identically, but a grid of cells does not thunder in lockstep.
    """
    if base_s <= 0.0 or attempt < 1:
        return 0.0
    delay = min(max_s, base_s * (2.0 ** (attempt - 1)))
    rng = random.Random(f"{technique}|{benchmark}|{seed}|{attempt}")
    return delay * (0.5 + rng.random())


class _DrainFlag:
    """Set by the signal handler; checked at every sweep barrier.

    ``external`` is an optional caller-owned stop condition -- anything
    with an ``is_set()`` method, typically a :class:`threading.Event` --
    that requests the same graceful drain as SIGTERM from outside the
    signal machinery.  The serving tier uses it for job cancellation and
    service-level drains, where the sweep runs off the main thread and no
    signal handler can be installed.
    """

    def __init__(self, external=None):
        self._event = threading.Event()
        self._external = external
        self.signum = 0

    def request(self, signum: int) -> None:
        self.signum = signum
        self._event.set()

    def is_set(self) -> bool:
        if self._event.is_set():
            return True
        return self._external is not None and self._external.is_set()

    @property
    def signal_name(self) -> str:
        if self.signum == 0:
            # Externally requested stop (cancellation / service drain).
            return "stop-request"
        try:
            return signal.Signals(self.signum).name
        except ValueError:  # pragma: no cover - synthetic signum
            return str(self.signum)


@contextlib.contextmanager
def _drain_on_signals(drain: "_DrainFlag"):
    """Turn SIGTERM/SIGINT into a drain request for the enclosed sweep.

    The first signal asks for a graceful drain (finish or abandon in-flight
    cells, flush the checkpoint, raise :class:`SweepInterrupted`); a second
    signal while draining escalates to an immediate KeyboardInterrupt.
    Handlers can only be installed from the main thread; elsewhere the
    sweep runs unsupervised exactly as before.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def on_signal(signum, frame):
        if drain.is_set():
            raise KeyboardInterrupt
        drain.request(signum)

    managed = (signal.SIGTERM, signal.SIGINT)
    previous = {}
    try:
        for sig in managed:
            previous[sig] = signal.signal(sig, on_signal)
    except (ValueError, OSError):  # pragma: no cover - exotic host
        for sig, old in previous.items():
            signal.signal(sig, old)
        yield
        return
    try:
        yield
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


# ----------------------------------------------------------------------
# Worker-process entry points
# ----------------------------------------------------------------------

#: Per-worker-process cache: the runner rebuilt from the last cell spec,
#: plus the heartbeat channel installed by the pool initializer.  Keeping
#: the runner across cells lets one worker reuse base runs (and their LRU
#: bound) exactly as the sequential path does within its own process.
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
    factory: ControllerFactory,
    benchmark: str,
    technique: str,
    seed: Optional[int],
    timeout_s: Optional[float],
    max_retries: int,
    backoff_base_s: float = 0.0,
    backoff_max_s: float = 30.0,
    ctx: Optional[dict] = None,
):
    """Execute one sweep cell inside a pool worker.

    ``spec_blob`` pickles ``(sweep_config, supply_transform,
    max_base_cache_entries, trace_store_path)``; the worker rebuilds a
    private
    :class:`BenchmarkRunner` from it (cached until the spec changes) so no
    simulator state is shared with the parent or with sibling workers.
    Timeouts run through the same :func:`_call_with_timeout` as the
    sequential path -- pool workers execute cells on their main thread, so
    the SIGALRM bound applies and a timed-out cell dies in place instead of
    leaking a live thread.

    The worker stamps a heartbeat at cell start, at every retry attempt,
    and at completion; the parent's supervisor treats a ``run``-stage
    stamp older than ``heartbeat_stale_s`` as a hung worker.

    Returns ``(metrics, failure, telemetry)``: the worker's metrics
    registry is reset at cell start and snapshotted at cell end, so
    ``telemetry`` is exactly this cell's counter deltas for the parent to
    :meth:`~repro.obs.metrics.MetricsRegistry.merge` -- additive and
    order-independent, so the merged totals do not depend on completion
    order.  (Totals can still differ from a sequential sweep's where a
    worker-local base cache recomputes a base run another worker already
    has; see docs/observability.md.)
    """
    cell_label = f"{benchmark}|{'-' if seed is None else seed}"
    _worker_beat("run", cell_label)
    registry = obs_metrics.active_registry()
    if registry is not None:
        registry.reset()
    try:
        if _WORKER_STATE.get("spec") != spec_blob:
            (
                config,
                supply_transform,
                max_base_cache_entries,
                trace_store_path,
            ) = pickle.loads(spec_blob)
            _WORKER_STATE["runner"] = BenchmarkRunner(
                config,
                supply_transform=supply_transform,
                max_base_cache_entries=max_base_cache_entries,
                trace_store=trace_store_path,
            )
            _WORKER_STATE["spec"] = spec_blob
        runner: "BenchmarkRunner" = _WORKER_STATE["runner"]
        resilience = ResilienceConfig(
            timeout_s=timeout_s,
            max_retries=max_retries,
            backoff_base_s=backoff_base_s,
            backoff_max_s=backoff_max_s,
        )
        # The dispatch context (the parent's sweep span) crosses the
        # process boundary as a plain dict; installing it marked remote
        # makes the cell span close the parent's pending flow arrow.
        with obs_context.use_context(
            obs_context.TraceContext.from_dict(ctx), remote=True
        ):
            metrics, failure = runner._run_cell(
                benchmark,
                technique,
                factory,
                resilience,
                base_seed=seed,
                on_attempt=lambda attempt: _worker_beat("run", cell_label),
            )
        telemetry = registry.snapshot() if registry is not None else None
        return metrics, failure, telemetry
    finally:
        profiler = obs_profile.active_profiler()
        if profiler is not None:
            profiler.flush_shard()
        _worker_beat("idle", cell_label)


class BenchmarkRunner:
    """Runs benchmarks against controller factories, caching base runs.

    Parameters
    ----------
    config:
        Cycle counts and hardware configuration shared by every run.
    resilience:
        Default :class:`ResilienceConfig` for :meth:`sweep`; when None the
        module-level :data:`DEFAULT_RESILIENCE` (set by the experiments
        registry from CLI flags) applies.
    supply_transform:
        Optional ``(supply, benchmark) -> supply`` hook wrapping the power
        supply of every run -- the fault-injection subsystem uses it to
        mount adversarial current attackers on otherwise unchanged sweeps.
    max_base_cache_entries:
        Bound on the cached base runs (LRU eviction), so long multi-seed
        sweeps cannot grow memory without limit.
    trace_store:
        Optional trace record/replay store -- a directory path or a
        :class:`repro.trace.TraceStore` -- for cells whose controller
        schedule is replayable (see :func:`repro.trace.replay.schedule_token`).
        When None, the store configured on the active
        :class:`ResilienceConfig` (``--trace-store``) applies.
    replay:
        ``False`` disables the record/replay layer for this runner no
        matter what the resilience config says (the ``--no-replay``
        escape hatch).

    A runner used with ``workers > 1`` owns a lazily created process pool;
    :meth:`close` (or use as a context manager) releases it.  The pool is
    kept alive between sweeps so worker-side base-run caches stay warm
    across the technique variants of one experiment.
    """

    def __init__(
        self,
        config: Optional[SweepConfig] = None,
        resilience: Optional[ResilienceConfig] = None,
        supply_transform: Optional[SupplyTransform] = None,
        max_base_cache_entries: int = 32,
        trace_store=None,
        replay: bool = True,
    ):
        if max_base_cache_entries < 1:
            raise ConfigurationError("max_base_cache_entries must be >= 1")
        self.config = config or SweepConfig()
        self.resilience = resilience
        self.supply_transform = supply_transform
        self.max_base_cache_entries = max_base_cache_entries
        self.replay = bool(replay)
        self._trace_store_path: Optional[str] = None
        self._trace_stores: Dict[str, object] = {}
        if trace_store is not None:
            root = getattr(trace_store, "root", None)
            if root is not None:
                self._trace_store_path = root
                self._trace_stores[root] = trace_store
            else:
                self._trace_store_path = str(trace_store)
        self._active_resilience: Optional[ResilienceConfig] = None
        self._base_cache: "OrderedDict[tuple, SimulationResult]" = OrderedDict()
        self._checkpoint_cells: Optional[Dict[str, dict]] = None
        self._sweep_count = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        self._executor_workers = 0
        self._executor_heartbeat = False
        self._executor_obs_spec: Optional[dict] = None
        self._manager = None
        self._heartbeats = None
        self._closed = False

    # ------------------------------------------------------------------
    # Process-pool lifecycle
    # ------------------------------------------------------------------
    def _shutdown_executor(self) -> None:
        """Release the worker pool (rebuildable; the runner stays open)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
            self._executor_workers = 0
            self._executor_heartbeat = False
            self._executor_obs_spec = None

    def close(self) -> None:
        """Release the worker pool and heartbeat channel; idempotent.

        A closed runner refuses further sweeps (and ``with`` re-entry)
        with :class:`~repro.errors.HarnessError` -- a clear error beats a
        sweep silently hanging on a dead pool.
        """
        self._shutdown_executor()
        if self._manager is not None:
            with contextlib.suppress(Exception):
                self._manager.shutdown()
            self._manager = None
            self._heartbeats = None
        self._closed = True

    def __enter__(self) -> "BenchmarkRunner":
        if self._closed:
            raise HarnessError(
                "BenchmarkRunner is closed: its worker pool was released;"
                " create a new runner instead of re-entering this one"
            )
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def _worker_pids(self) -> List[int]:
        """PIDs of the live pool workers (empty when no pool exists)."""
        executor = self._executor
        processes = getattr(executor, "_processes", None) if executor else None
        return list(processes or ())

    def _kill_workers(self) -> None:
        """SIGKILL every pool worker (drain deadline passed / worker hung)."""
        for pid in self._worker_pids():
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)

    def _ensure_executor(
        self, workers: int, heartbeat: bool = False
    ) -> ProcessPoolExecutor:
        if self._closed:
            raise HarnessError(
                "BenchmarkRunner is closed: create a new runner to sweep again"
            )
        obs_spec = obs.worker_spec()
        if self._executor is not None and (
            self._executor_workers != workers
            or self._executor_heartbeat != heartbeat
            or self._executor_obs_spec != obs_spec
        ):
            self._shutdown_executor()
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
                initargs=(heartbeats, obs_spec),
            )
            self._executor_workers = workers
            self._executor_heartbeat = heartbeat
            self._executor_obs_spec = obs_spec
        return self._executor

    def _stale_worker_pids(self, stale_s: float) -> List[int]:
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

    # ------------------------------------------------------------------
    # Building and running single cells
    # ------------------------------------------------------------------
    def _build_simulation(
        self,
        benchmark: str,
        controller: NoiseController,
        record: bool = False,
        seed: Optional[int] = None,
    ) -> Simulation:
        config = self.config
        processor = Processor.from_profile(
            SPEC2K[benchmark],
            n_instructions=config.instructions(),
            config=config.processor,
            supply_config=config.supply,
            seed=seed,
        )
        supply = PowerSupply(
            config.supply, initial_current=config.processor.min_current_amps
        )
        if self.supply_transform is not None:
            supply = self.supply_transform(supply, benchmark)
        return Simulation(
            processor,
            supply,
            controller,
            record=record,
            benchmark=benchmark,
            warmup_cycles=config.warmup_cycles,
        )

    # ------------------------------------------------------------------
    # Trace record/replay (repro.trace; ROADMAP item 2)
    # ------------------------------------------------------------------
    def _trace_layer(self, resilience: Optional[ResilienceConfig] = None):
        """The active :class:`~repro.trace.TraceStore`, or None.

        Resolution order: the runner-level ``replay=False`` switch wins,
        then a store passed to the constructor, then the resilience
        config (the explicit argument, the sweep in progress, the
        runner's own, or :data:`DEFAULT_RESILIENCE` -- same chain as
        :meth:`_resolve_resilience`).  Store objects are cached per path
        so hit/miss statistics accumulate across a whole sweep.
        """
        if not self.replay:
            return None
        path = self._trace_store_path
        if path is None:
            if resilience is None:
                resilience = self._active_resilience
            resilience = self._resolve_resilience(resilience)
            if not resilience.replay:
                return None
            path = resilience.trace_store_path
        if path is None:
            return None
        store = self._trace_stores.get(path)
        if store is None:
            # Function-level import: repro.trace.replay imports the
            # simulation module, which sits beside this one.
            from repro.trace import TraceStore

            store = TraceStore(path)
            self._trace_stores[path] = store
        return store

    def _trace_spec(
        self, resilience: Optional[ResilienceConfig] = None
    ) -> Optional[str]:
        """Store root to ship to pool workers (None = replay off)."""
        store = self._trace_layer(resilience)
        return None if store is None else store.root

    def _trace_key(
        self,
        benchmark: str,
        controller: NoiseController,
        seed: Optional[int],
    ):
        """Front-end key of one cell, or None when it cannot replay.

        The key digests everything that shapes the per-cycle current
        trace: workload profile, effective trace seed, instruction
        budget, processor config, cycle counts, the controller's
        directive-schedule token and the supply-overlay token.  Supply
        parameters are deliberately absent -- currents are
        supply-independent for replayable (feedback-free) schedules, so
        one record serves every RLC/detector/response variant.
        """
        from repro.trace import TraceKey, overlay_token
        from repro.trace.replay import schedule_token

        token = schedule_token(controller)
        if token is None:
            return None
        overlay = overlay_token(self.supply_transform)
        if overlay is None:
            return None
        config = self.config
        profile = SPEC2K[benchmark]
        return TraceKey(
            benchmark=benchmark,
            workload=asdict(profile),
            seed=profile.seed if seed is None else seed,
            n_instructions=config.instructions(),
            processor=asdict(config.processor),
            n_cycles=config.n_cycles,
            warmup_cycles=config.warmup_cycles,
            schedule=token,
            overlay=overlay,
        )

    def _replay_supply(self, benchmark: str) -> PowerSupply:
        """A fresh supply (overlay applied), identical to a full run's."""
        supply = PowerSupply(
            self.config.supply,
            initial_current=self.config.processor.min_current_amps,
        )
        if self.supply_transform is not None:
            supply = self.supply_transform(supply, benchmark)
        return supply

    def _run_simulation(
        self,
        benchmark: str,
        controller: NoiseController,
        seed: Optional[int] = None,
        record: bool = False,
    ) -> SimulationResult:
        """Run one cell: replay a recorded trace when possible, else
        simulate fully (recording the trace on a store miss).

        Replay is guarded: any load-time doubt -- digest mismatch,
        truncation, corruption -- already degraded to ``load() -> None``
        inside the store (with an incident recorded), so this method
        falls back to the full simulation and, when the front end proves
        replayable (see :class:`~repro.trace.store.TraceCapture`),
        re-records it.
        """
        store = self._trace_layer()
        if store is not None:
            key = self._trace_key(benchmark, controller, seed)
        else:
            key = None
        if key is None:
            simulation = self._build_simulation(
                benchmark, controller, record=record, seed=seed
            )
            return simulation.run(self.config.n_cycles)

        from repro.trace import TraceCapture
        from repro.trace.replay import ReplaySimulation

        payload = store.load(key, label=benchmark)
        if payload is not None:
            replay = ReplaySimulation(
                payload,
                self._replay_supply(benchmark),
                controller,
                record=record,
                benchmark=benchmark,
            )
            return replay.run(self.config.n_cycles)
        simulation = self._build_simulation(
            benchmark, controller, record=record, seed=seed
        )
        simulation.capture = TraceCapture(key)
        result = simulation.run(self.config.n_cycles)
        if simulation.capture.completed:
            store.save(simulation.capture)
        return result

    def _base_key(self, benchmark: str, seed: Optional[int]) -> tuple:
        """Cache key of one base run.

        The sweep configuration (and the supply transform, compared by
        identity) is part of the key: ``config`` is a plain attribute, so a
        runner whose configuration is swapped between runs -- an ablation
        grid reusing one cache-shaped workflow -- must not be served a base
        run computed under the old configuration.
        """
        return (benchmark, seed, self.config, self.supply_transform)

    def run_base(
        self, benchmark: str, seed: Optional[int] = None
    ) -> SimulationResult:
        """Run (or fetch the cached) uncontrolled base configuration."""
        key = self._base_key(benchmark, seed)
        if key in self._base_cache:
            self._base_cache.move_to_end(key)
            return self._base_cache[key]
        result = self._run_simulation(benchmark, NullController(), seed=seed)
        self._base_cache[key] = result
        while len(self._base_cache) > self.max_base_cache_entries:
            self._base_cache.popitem(last=False)
        return result

    def clear_cache(self) -> None:
        """Drop all cached base runs (they are recomputed on demand)."""
        self._base_cache.clear()

    def prefetch_base_batch(
        self,
        cells: Sequence[Tuple[str, Optional[int]]],
        timeout_s: Optional[float] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Warm the base-run cache for several ``(benchmark, seed)`` cells.

        Hands all uncached lanes to :func:`repro.sim.simulation.run_batch`
        so the vectorized cycle kernel advances their supplies together in
        one lane-batched call.  Results are bit-identical to ``run_base``
        (the kernel is gated by the goldens), so this is purely a cache
        warmer: lanes that fail, time out, or are skipped are simply left
        uncached and fall back to the scalar ``run_base`` path -- where
        their error (if any) reproduces under the cell's normal
        retry/timeout policy.

        Returns the number of cells newly cached.  No-ops (returns 0) when
        a supply transform is installed (transformed supplies may override
        ``step``), when the kernel is disabled, or when fewer than two
        lanes actually need running.
        """
        from repro.core import kernel as core_kernel
        from repro.sim.simulation import run_batch

        if self.supply_transform is not None or not core_kernel.kernel_enabled():
            return 0
        store = self._trace_layer()
        pending = []
        seen = set()
        for benchmark, seed in cells:
            key = self._base_key(benchmark, seed)
            if key in self._base_cache or key in seen:
                continue
            seen.add(key)
            trace_key = None
            if store is not None:
                trace_key = self._trace_key(benchmark, NullController(), seed)
                if trace_key is not None and store.contains(trace_key):
                    # Already recorded: run_base replays it on demand
                    # (cheap), so don't spend pipeline time here.
                    continue
            pending.append((key, benchmark, seed, trace_key))
        if len(pending) < 2:
            return 0
        simulations = []
        for _key, benchmark, seed, trace_key in pending:
            simulation = self._build_simulation(
                benchmark, NullController(), seed=seed
            )
            if trace_key is not None:
                from repro.trace import TraceCapture

                simulation.capture = TraceCapture(trace_key)
            simulations.append(simulation)
        guard = None
        if timeout_s is not None:
            guard = lambda fn: _call_with_timeout(fn, timeout_s)
        outcomes = run_batch(
            simulations,
            self.config.n_cycles,
            guard=guard,
            should_stop=should_stop,
        )
        cached = 0
        for (key, _benchmark, _seed, _tk), simulation, outcome in zip(
            pending, simulations, outcomes
        ):
            if isinstance(outcome, SimulationResult):
                self._base_cache[key] = outcome
                self._base_cache.move_to_end(key)
                cached += 1
                capture = simulation.capture
                if store is not None and capture is not None \
                        and capture.completed:
                    store.save(capture)
        while len(self._base_cache) > self.max_base_cache_entries:
            self._base_cache.popitem(last=False)
        return cached

    def run_technique(
        self,
        benchmark: str,
        factory: ControllerFactory,
        seed: Optional[int] = None,
    ) -> SimulationResult:
        controller = factory(self.config.supply, self.config.processor)
        return self._run_simulation(benchmark, controller, seed=seed)

    def compare(
        self,
        benchmark: str,
        factory: ControllerFactory,
        seed: Optional[int] = None,
    ) -> RelativeMetrics:
        base = self.run_base(benchmark, seed=seed)
        result = self.run_technique(benchmark, factory, seed=seed)
        return result.relative_to(base)

    def compare_seeds(
        self,
        benchmark: str,
        factory: ControllerFactory,
        n_seeds: int = 3,
    ) -> SeedStatistics:
        """Repeat the comparison over ``n_seeds`` regenerated traces."""
        if n_seeds < 1:
            raise ValueError("n_seeds must be at least 1")
        profile_seed = SPEC2K[benchmark].seed
        seeds: List[Optional[int]] = [None]
        seeds += [profile_seed + 1000 * k for k in range(1, n_seeds)]
        runs = tuple(
            self.compare(benchmark, factory, seed=seed) for seed in seeds
        )
        slowdowns = [run.slowdown for run in runs]
        energy_delays = [run.energy_delay for run in runs]

        def mean(values):
            return sum(values) / len(values)

        def std(values):
            centre = mean(values)
            return (sum((v - centre) ** 2 for v in values) / len(values)) ** 0.5

        return SeedStatistics(
            benchmark=benchmark,
            technique=runs[0].technique,
            n_seeds=n_seeds,
            mean_slowdown=mean(slowdowns),
            std_slowdown=std(slowdowns),
            mean_energy_delay=mean(energy_delays),
            std_energy_delay=std(energy_delays),
            max_violation_fraction=max(run.violation_fraction for run in runs),
            runs=runs,
        )

    # ------------------------------------------------------------------
    # Resilient sweeping
    # ------------------------------------------------------------------
    def _resolve_resilience(
        self, override: Optional[ResilienceConfig]
    ) -> ResilienceConfig:
        if override is not None:
            return override
        if self.resilience is not None:
            return self.resilience
        if DEFAULT_RESILIENCE is not None:
            return DEFAULT_RESILIENCE
        return ResilienceConfig()

    def _run_cell(
        self,
        benchmark: str,
        technique: str,
        factory: ControllerFactory,
        resilience: ResilienceConfig,
        base_seed: Optional[int] = None,
        on_attempt: Optional[Callable[[int], None]] = None,
    ):
        """One (benchmark, technique, seed) cell with timeout and retry.

        Returns ``(metrics, None)`` on success or ``(None, FailureReport)``
        once every attempt -- the original run plus ``max_retries``
        deterministically re-seeded ones -- has failed.  Retry attempts
        wait out a deterministic exponential backoff (seeded jitter, see
        :func:`_backoff_delay_s`) when ``backoff_base_s`` is set, and
        ``on_attempt`` fires at the start of each attempt (the parallel
        backend's heartbeat).  Interrupts (KeyboardInterrupt / SystemExit)
        always propagate so a killed sweep stops at a checkpointed boundary
        instead of "retrying" the kill.
        """
        last_error: Optional[BaseException] = None
        seed = base_seed
        attempts = resilience.max_retries + 1
        tracer = obs_trace.active_tracer()
        registry = obs_metrics.active_registry()
        started = time.perf_counter()
        with contextlib.ExitStack() as stack:
            span_args: dict = {}
            if tracer is not None:
                # The cell context is derived, not random, so the
                # dispatching side (the pool submit) computes the same
                # span id for its flow arrow, and fixed-seed runs produce
                # identical linkage on every backend.
                cell_ctx = None
                remote = obs_context.context_is_remote()
                parent_ctx = obs_context.current_context()
                if parent_ctx is not None:
                    cell_ctx = parent_ctx.child(
                        f"cell|{benchmark}|{technique}|{base_seed}"
                    )
                    stack.enter_context(obs_context.use_context(cell_ctx))
                span_args = stack.enter_context(tracer.span(
                    f"cell {benchmark}",
                    cat=obs_trace.CAT_CELL,
                    args={
                        "benchmark": benchmark,
                        "technique": technique,
                        "seed": base_seed,
                    },
                    ctx=cell_ctx,
                ))
                if cell_ctx is not None and remote:
                    # Close the dispatcher's flow arrow from inside the
                    # cell slice so Perfetto binds it to this span.
                    tracer.flow_end(cell_ctx.span_id)
            profiler = obs_profile.active_profiler()
            if profiler is not None:
                stack.enter_context(profiler.attribute(
                    f"{benchmark}|{technique}|"
                    f"{'-' if base_seed is None else base_seed}"
                ))
            for attempt in range(attempts):
                if attempt:
                    origin = (
                        base_seed
                        if base_seed is not None
                        else SPEC2K[benchmark].seed
                    )
                    seed = origin + _RESEED_STRIDE * attempt
                    delay = _backoff_delay_s(
                        technique, benchmark, base_seed, attempt,
                        resilience.backoff_base_s, resilience.backoff_max_s,
                    )
                    if registry is not None:
                        registry.counter(
                            "runner_retries_total",
                            help="sweep-cell retry attempts (beyond the"
                                 " first attempt)",
                        ).inc()
                    if tracer is not None:
                        tracer.instant("retry", args={
                            "benchmark": benchmark,
                            "technique": technique,
                            "seed": seed,
                            "attempt": attempt,
                            "error": f"{type(last_error).__name__}:"
                                     f" {last_error}",
                        })
                    if delay > 0.0:
                        time.sleep(delay)
                if on_attempt is not None:
                    on_attempt(attempt)
                try:
                    metrics = _call_with_timeout(
                        lambda: self.compare(benchmark, factory, seed=seed),
                        resilience.timeout_s,
                    )
                    span_args["attempts"] = attempt + 1
                    span_args["outcome"] = "completed"
                    self._observe_cell_latency(registry, started)
                    return metrics, None
                except Exception as error:
                    last_error = error
            span_args["attempts"] = attempts
            span_args["outcome"] = f"failed: {type(last_error).__name__}"
            self._observe_cell_latency(registry, started)
            return None, FailureReport(
                benchmark=benchmark,
                technique=technique,
                seed=seed,
                attempts=attempts,
                error_type=type(last_error).__name__,
                message=str(last_error),
            )

    @staticmethod
    def _observe_cell_latency(registry, started: float) -> None:
        if registry is not None:
            registry.histogram(
                "runner_cell_seconds",
                help="wall-clock seconds per sweep cell, retries included",
            ).observe(time.perf_counter() - started)

    def sweep(
        self,
        factory: ControllerFactory,
        benchmarks: Optional[Sequence[str]] = None,
        progress: Optional[Callable[[str, RelativeMetrics], None]] = None,
        resilience: Optional[ResilienceConfig] = None,
        seeds: Optional[Sequence[Optional[int]]] = None,
        stop=None,
        on_failure: Optional[Callable] = None,
    ) -> TechniqueSummary:
        """Run one technique over a (benchmark, seed) grid and aggregate.

        With a :class:`ResilienceConfig` (passed here, on the runner, or via
        :data:`DEFAULT_RESILIENCE`), each completed cell is appended to the
        JSON checkpoint before the next starts, failed cells are retried on
        re-seeded traces and finally reported as :class:`FailureReport`
        entries, and ``resume=True`` skips cells already in the checkpoint
        -- producing a summary identical to an uninterrupted sweep.

        ``seeds`` widens the grid: every benchmark runs once per seed
        (default ``(None,)``, today's single-run behaviour), with each
        (benchmark, seed) pair checkpointed as its own cell.

        ``workers > 1`` executes pending cells on a process pool.  The
        summary (rows, failure order, aggregates) is bit-identical to a
        sequential sweep -- rows are assembled in grid order regardless of
        completion order -- and the final checkpoint file is byte-identical
        (cells are keyed, and the JSON is written with sorted keys).  Only
        the ``progress`` callback order differs: sequential sweeps report
        cells in grid order, parallel sweeps in completion order (cached
        cells first).

        The returned summary carries a ``timings`` attribute with the
        per-phase wall-clock breakdown and an ``incidents`` attribute with
        the worker-supervision events (see :class:`TechniqueSummary`).

        Sweeps drain gracefully: SIGTERM or SIGINT during a sweep stops
        dispatching new cells, flushes a final checkpoint (plus a
        ``<checkpoint>.shutdown.json`` summary), and raises
        :class:`~repro.errors.SweepInterrupted` -- the CLI exits nonzero
        but the run resumes with ``--resume``.

        ``stop`` is an optional external stop condition (anything with an
        ``is_set()`` method, typically a :class:`threading.Event`): when it
        becomes set the sweep drains exactly as it would on SIGTERM, at the
        next cell barrier, raising :class:`~repro.errors.SweepInterrupted`.
        The serving tier (:mod:`repro.serve`) uses it for job cancellation
        and service drains, where sweeps run off the main thread and no
        signal handler can be installed.  ``on_failure`` is the failure
        counterpart of ``progress``: called as ``on_failure(cell, report)``
        whenever a cell is parked as a :class:`FailureReport`, on every
        backend.
        """
        if self._closed:
            raise HarnessError(
                "BenchmarkRunner is closed: its worker pool was released;"
                " create a new runner to sweep again"
            )
        t_total = time.perf_counter()
        tracer = obs_trace.active_tracer()
        registry = obs_metrics.active_registry()
        with contextlib.ExitStack() as sweep_stack:
            sweep_args = sweep_stack.enter_context(_maybe_span(tracer, "sweep"))
            with _maybe_span(tracer, "setup"):
                resilience = self._resolve_resilience(resilience)
                # Cells executed through compare/run_base must see this
                # sweep's resilience (its --trace-store in particular).
                self._active_resilience = resilience
                sweep_stack.callback(
                    setattr, self, "_active_resilience", None
                )
                names = (
                    list(benchmarks) if benchmarks is not None
                    else sorted(SPEC2K)
                )
                seed_list: List[Optional[int]] = (
                    list(seeds) if seeds is not None else [None]
                )
                if not seed_list:
                    raise ConfigurationError(
                        "seeds must be non-empty when given"
                    )
                # One probe controller names the technique (cells are keyed
                # by it).
                technique = factory(
                    self.config.supply, self.config.processor
                ).name
                ordinal = self._sweep_count
                checkpoint = SweepCheckpoint.open(
                    resilience, self.config, ordinal, technique,
                    cells=self._checkpoint_cells,
                )
                self._checkpoint_cells = checkpoint.cells
                self._sweep_count += 1
                grid = [(name, seed) for name in names for seed in seed_list]

                results: Dict[Tuple[str, Optional[int]], RelativeMetrics] = {}
                failure_map: Dict[
                    Tuple[str, Optional[int]], FailureReport
                ] = {}
                pending: List[Tuple[str, Optional[int]]] = []
                for cell in grid:
                    metrics = checkpoint.completed(cell)
                    if metrics is not None:
                        results[cell] = metrics
                    else:
                        pending.append(cell)
                backend = select_backend(
                    self, resilience, factory, len(pending)
                )
                workers = backend.workers
            sweep_ctx = None
            if tracer is not None:
                # Deterministic sweep identity: under a serve job the
                # context chains off the job/request span; standalone
                # sweeps root a fresh trace.  Either way fixed-seed runs
                # get byte-identical ids.
                identity = f"sweep|{technique}|{ordinal}"
                parent_ctx = obs_context.current_context()
                sweep_ctx = (
                    parent_ctx.child(identity)
                    if parent_ctx is not None
                    else obs_context.TraceContext.root(
                        f"{identity}|{len(grid)}"
                    )
                )
                sweep_args.update(sweep_ctx.span_args())
                sweep_stack.enter_context(obs_context.use_context(sweep_ctx))
            sweep_args.update({
                "technique": technique,
                "backend": backend.name,
                "workers": workers,
                "cells_total": len(grid),
                "cells_cached": len(grid) - len(pending),
            })
            timings = {
                "workers": float(workers),
                "cells_total": float(len(grid)),
                "cells_cached": float(len(grid) - len(pending)),
                "setup": time.perf_counter() - t_total,
                "checkpoint_io": 0.0,
            }

            incidents: List[FailureReport] = []
            drain = _DrainFlag(external=stop)
            trace_store = self._trace_layer(resilience)
            trace_stats_before = (
                dict(trace_store.stats) if trace_store is not None else None
            )
            t_execute = time.perf_counter()
            with _maybe_span(tracer, "execute"), _drain_on_signals(drain):
                job = SweepJob(
                    runner=self,
                    grid=grid,
                    pending=pending,
                    technique=technique,
                    factory=factory,
                    resilience=resilience,
                    progress=progress,
                    checkpoint=checkpoint,
                    results=results,
                    failure_map=failure_map,
                    timings=timings,
                    drain=drain,
                    incidents=incidents,
                    on_failure=on_failure,
                )
                backend.execute(job)
            timings["execute"] = time.perf_counter() - t_execute
            if trace_store is not None:
                # Hit/miss deltas live in ``timings`` (diagnostics outside
                # the dataclass fields), so a warm-store sweep still
                # fingerprints identical to a cold one.  Guard failures
                # become incidents: the result is still correct (full
                # simulation ran), but the operator should know the store
                # is rotting.  Pool workers keep their own stores;
                # their counts arrive via the merged obs telemetry.
                for stat, value in trace_store.stats.items():
                    timings[f"trace_{stat}"] = float(
                        value - trace_stats_before[stat]
                    )
                for event in trace_store.drain_incidents():
                    incidents.append(FailureReport(
                        benchmark=event.get("benchmark", "trace-store"),
                        technique=technique,
                        seed=None,
                        attempts=0,
                        error_type=event.get(
                            "error_type", "TraceStoreCorrupt"
                        ),
                        message=(
                            f"{event.get('kind', 'entry')}"
                            f" {event.get('path', '?')}:"
                            f" {event.get('reason', 'rejected')};"
                            f" fell back to full simulation"
                        ),
                    ))

            t_aggregate = time.perf_counter()
            with _maybe_span(tracer, "aggregate"):
                rows: List[RelativeMetrics] = []
                failures: List[FailureReport] = []
                violation_cycles = 0
                for cell in grid:
                    metrics = results.get(cell)
                    if metrics is not None:
                        rows.append(metrics)
                        violation_cycles += round(
                            metrics.violation_fraction * self.config.n_cycles
                        )
                    elif cell in failure_map:
                        failures.append(failure_map[cell])
                if not rows:
                    detail = "; ".join(
                        f"{f.benchmark}: {f.error_type}: {f.message}"
                        for f in failures
                    )
                    raise FaultError(
                        f"every cell of the {technique!r} sweep failed"
                        f" ({detail})"
                    )
                summary = summarize(
                    rows, violation_cycles, failures=tuple(failures)
                )
            timings["aggregate"] = time.perf_counter() - t_aggregate
            timings["total"] = time.perf_counter() - t_total
            # Diagnostic attributes, deliberately outside the dataclass
            # fields (see TechniqueSummary): summaries stay comparable
            # across backends and across supervision incidents.
            object.__setattr__(summary, "timings", timings)
            object.__setattr__(summary, "incidents", tuple(incidents))
            if registry is not None:
                self._record_sweep_metrics(
                    registry, technique, workers, grid, pending, results,
                    failure_map, incidents,
                )
            checkpoint.write_summary(summary)
            return summary

    @staticmethod
    def _record_sweep_metrics(
        registry,
        technique: str,
        workers: int,
        grid: Sequence[Tuple[str, Optional[int]]],
        pending: Sequence[Tuple[str, Optional[int]]],
        results: Dict[Tuple[str, Optional[int]], RelativeMetrics],
        failure_map: Dict[Tuple[str, Optional[int]], FailureReport],
        incidents: Sequence[FailureReport],
    ) -> None:
        """Sweep-level counters, recorded once at aggregation time."""
        labels = {"technique": technique}
        registry.counter(
            "runner_sweeps_total", help="completed sweeps"
        ).inc(labels=labels)
        registry.gauge(
            "runner_workers", help="process-pool size of the last sweep"
        ).set(workers)
        cached = len(grid) - len(pending)
        by_status = registry.counter(
            "runner_cells_total", help="sweep cells by final status"
        )
        by_status.inc(cached, labels={"status": "cached"})
        by_status.inc(len(results) - cached, labels={"status": "completed"})
        parked = sum(1 for f in failure_map.values() if f.skipped)
        by_status.inc(
            len(failure_map) - parked, labels={"status": "failed"}
        )
        by_status.inc(parked, labels={"status": "parked"})
        registry.counter(
            "runner_incidents_total",
            help="worker-supervision incidents (lost or hung workers)",
        ).inc(len(incidents))


def summarize(
    rows: Iterable[RelativeMetrics],
    total_violation_cycles: int = 0,
    failures: Tuple[FailureReport, ...] = (),
) -> TechniqueSummary:
    """Aggregate per-benchmark relative metrics into a table row."""
    rows = tuple(rows)
    if not rows:
        raise ValueError("summarize needs at least one row")
    worst = max(rows, key=lambda row: row.slowdown)
    return TechniqueSummary(
        technique=rows[0].technique,
        avg_slowdown=sum(row.slowdown for row in rows) / len(rows),
        worst_slowdown=worst.slowdown,
        worst_benchmark=worst.benchmark,
        apps_over_15_percent=sum(1 for row in rows if row.slowdown > 1.15),
        avg_energy_delay=sum(row.energy_delay for row in rows) / len(rows),
        avg_first_level_fraction=(
            sum(row.first_level_fraction for row in rows) / len(rows)
        ),
        avg_second_level_fraction=(
            sum(row.second_level_fraction for row in rows) / len(rows)
        ),
        total_violation_cycles=total_violation_cycles,
        per_benchmark=rows,
        failures=failures,
    )
