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

Sweeps are also *parallel*: a sweep's pending cells form one queue
(:func:`repro.sim.backends.run_pending`), drained in-process at one worker
and on the session's process pool at ``ResilienceConfig(workers=N)`` for
``N > 1`` (:mod:`repro.sim.backends` owns the pool, its workers and their
supervision).  A sweep is one pickle of its :class:`SweepConfig`, supply
transform and a probe controller (:func:`~repro.sim.checkpoint.sweep_spec`):
its digest keys the cells, each worker rebuilds a runner from it for
every cell, and every attempt runs a fresh copy of the probe restored
from it.  The only simulator output that crosses the process boundary is
a cell's base result, which travels with the cell when the session holds
it and comes back when the worker computed it.  Cells are deterministic
and independent (retry attempt ``k`` always reseeds to ``seed + 104729 *
k``), so every worker count produces bit-identical aggregates,
checkpoints and failure reports: checkpoints are written from the parent
in completion order but keyed by the same cell keys, and rows are always
aggregated in grid order.

Everything a command's sweeps share -- finished cells, base runs, the
checkpoint, the worker pool and the trace store -- lives on one
:class:`Session`; a :class:`BenchmarkRunner` is a view of a session at one
:class:`SweepConfig` and supply transform, and holds no state of its own.
"""

from __future__ import annotations

import contextlib
import signal
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import (
    PowerSupplyConfig,
    ProcessorConfig,
    TABLE1_PROCESSOR,
    TABLE1_SUPPLY,
)
from repro.core.controller import NoiseController, NullController
from repro.errors import ConfigurationError, FaultError, HarnessError
from repro.obs import context as obs_context
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.power.supply import PowerSupply
from repro.sim.backends import SweepJob, WorkerPool, run_pending
from repro.sim.checkpoint import SweepCheckpoint, sweep_spec
from repro.sim.metrics import RelativeMetrics, SimulationResult
from repro.sim.simulation import Simulation
from repro.uarch.processor import Processor
from repro.uarch.workloads import SPEC2K

__all__ = [
    "SweepConfig",
    "ResilienceConfig",
    "FailureReport",
    "TechniqueSummary",
    "BenchmarkRunner",
    "Session",
    "summarize",
]

ControllerFactory = Callable[[PowerSupplyConfig, ProcessorConfig], NoiseController]
SupplyTransform = Callable[[PowerSupply, str], PowerSupply]

#: Seed stride between retry attempts: a failed cell re-runs on a freshly
#: regenerated trace whose seed is a deterministic function of (profile
#: seed, attempt), so retries are reproducible run to run.
_RESEED_STRIDE = 104_729


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
    """Fault tolerance and worker count for a sweep."""

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
    #: the local process pool; 0 and 1 run in-process
    workers: int = 1
    #: a parallel worker whose current cell has not progressed for this
    #: many seconds is presumed hung, killed, and its cell requeued;
    #: None disables heartbeat supervision
    heartbeat_stale_s: Optional[float] = None
    #: after SIGTERM/SIGINT, how long the parallel drain waits for
    #: in-flight cells before killing the pool and exiting resumable
    drain_deadline_s: float = 10.0

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
                f" (0 or 1 = in-process, N = fan out)"
            )
        if self.heartbeat_stale_s is not None and self.heartbeat_stale_s <= 0:
            reject(
                f"heartbeat_stale_s must be positive when set,"
                f" got {self.heartbeat_stale_s!r}"
            )
        if self.drain_deadline_s <= 0:
            reject(
                f"drain_deadline_s must be positive,"
                f" got {self.drain_deadline_s!r}"
            )


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


def _call_with_timeout(fn: Callable[[], object], timeout_s: Optional[float]):
    """Run ``fn`` bounded by ``timeout_s`` of wall-clock time.

    The bound is an interval timer, which preempts the cell without
    spawning -- or leaking -- any thread, and which only a process's main
    thread can take.  Cells get there: pool workers run them on their
    main thread, and an in-process sweep refuses a ``timeout_s`` anywhere
    else before its first cell.  Without a timeout, runs inline.
    """
    if timeout_s is None:
        return fn()
    return _call_with_alarm(fn, timeout_s)


def _maybe_span(tracer, name: str, args: Optional[dict] = None):
    """A tracer span, or an inert context when tracing is disabled.

    Either way the ``with`` statement binds a mutable args dict, so
    instrumented code can attach results unconditionally.
    """
    if tracer is None:
        return contextlib.nullcontext(dict(args or {}))
    return tracer.span(name, cat=obs_trace.CAT_PHASE, args=args)


# ----------------------------------------------------------------------
# Graceful-drain plumbing
# ----------------------------------------------------------------------

class _DrainFlag:
    """Set by the signal handler; checked at every sweep barrier."""

    def __init__(self):
        self._event = threading.Event()
        self.signum = 0

    def request(self, signum: int) -> None:
        self.signum = signum
        self._event.set()

    def is_set(self) -> bool:
        return self._event.is_set()

    @property
    def signal_name(self) -> str:
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


class Session:
    """What one command's sweeps share, so the command computes each cell once.

    ``python -m repro experiment`` builds one session and hands it to every
    experiment it runs; their runners are views of it (:meth:`runner`).  A
    session holds:

    * ``resilience`` -- the command's :class:`ResilienceConfig`, which a
      sweep's own ``resilience=`` argument overrides for that sweep;
    * ``trace_store`` -- the :class:`~repro.trace.TraceStore` every cell
      records to and replays from, or None (record/replay is off); a path
      given to the constructor becomes a store on that directory;
    * ``cells`` -- finished cells as metrics records, keyed by their
      content key (:func:`~repro.sim.checkpoint.cell_key`).  It is the memo
      every sweep is served from, with or without ``resume``, and the
      checkpoint: a flush writes all of it;
    * ``bases`` -- base runs keyed by ``(benchmark, seed, SweepConfig,
      supply transform)``, the transform compared by identity;
    * ``pool`` -- one :class:`~repro.sim.backends.WorkerPool`.

    Building a session starts nothing: the pool and its heartbeat channel
    wait for the first parallel sweep, the store touches no file before a
    cell runs, and a checkpoint file is read only when a sweep resumes it,
    once per path.  :meth:`close` (or use as a context manager) releases
    the pool.  A session belongs to one command and is never
    process-wide: two sessions share nothing.
    """

    def __init__(
        self,
        resilience: Optional[ResilienceConfig] = None,
        trace_store=None,
    ):
        self.resilience = resilience or ResilienceConfig()
        self.cells: Dict[str, dict] = {}
        self.bases: Dict[tuple, SimulationResult] = {}
        self.pool = WorkerPool()
        self._resumed: set = set()
        if trace_store is not None:
            # Function-level import: repro.trace.replay imports the
            # simulation module, which sits beside this one.
            from repro.trace import TraceStore

            if not isinstance(trace_store, TraceStore):
                trace_store = TraceStore(trace_store)
        self.trace_store = trace_store

    def runner(
        self,
        config: Optional[SweepConfig] = None,
        supply_transform: Optional[SupplyTransform] = None,
    ) -> "BenchmarkRunner":
        """A runner at ``config`` and ``supply_transform`` over this session."""
        runner = BenchmarkRunner(config, supply_transform=supply_transform)
        runner.session = self  # in place of the private one it was built with
        return runner

    def checkpoint(
        self,
        resilience: ResilienceConfig,
        config: SweepConfig,
        spec: str,
        technique: str,
    ) -> SweepCheckpoint:
        """One sweep's checkpoint over the session's ``cells``.

        The first sweep that resumes a path reads the file
        (:meth:`SweepCheckpoint.open`) into the cells.  Without ``resume``
        the file is never read, so the sweep's first flush replaces it
        with the session's cells.
        """
        path = resilience.checkpoint_path
        if resilience.resume and path not in self._resumed:
            self._resumed.add(path)
            resumed = SweepCheckpoint.open(resilience, config, spec, technique)
            for key, record in resumed.cells.items():
                self.cells.setdefault(key, record)
        return SweepCheckpoint(path, config, spec, technique, self.cells)

    @property
    def closed(self) -> bool:
        return self.pool.closed

    def close(self) -> None:
        """Release the worker pool and heartbeat channel; idempotent.

        A closed session refuses further sweeps with
        :class:`~repro.errors.HarnessError` -- a clear error beats a sweep
        silently hanging on a dead pool.
        """
        self.pool.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


class BenchmarkRunner:
    """Runs benchmarks against controller factories: a view of a session.

    A runner is a :class:`Session` seen at one :class:`SweepConfig` and
    supply transform.  It holds no state of its own: finished cells, base
    runs, the checkpoint, the worker pool and the trace store belong to
    the session, so every runner of one session is served what any of
    them computed.

    Parameters
    ----------
    config:
        Cycle counts and hardware configuration shared by every run.
    resilience:
        Default :class:`ResilienceConfig` of the runner's private session.
    supply_transform:
        Optional ``(supply, benchmark) -> supply`` hook wrapping the power
        supply of every run -- the fault-injection subsystem uses it to
        mount adversarial current attackers on otherwise unchanged sweeps.
        Every sweep pickles it, so build it as a module-level callable or
        a ``functools.partial`` over one.
    trace_store:
        Optional trace record/replay store of the runner's private
        session -- a directory path or a :class:`repro.trace.TraceStore`
        -- that records and replays the base processor's runs (cells
        whose controller is :class:`NullController` itself).

    The constructor builds a private session, so a new runner starts cold;
    :meth:`Session.runner` gives a runner over a shared one.
    :meth:`close` (or use as a context manager) closes the session.
    """

    def __init__(
        self,
        config: Optional[SweepConfig] = None,
        resilience: Optional[ResilienceConfig] = None,
        supply_transform: Optional[SupplyTransform] = None,
        trace_store=None,
    ):
        self.session = Session(resilience, trace_store)
        self.config = config or SweepConfig()
        self.supply_transform = supply_transform

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the runner's session; idempotent."""
        self.session.close()

    def __enter__(self) -> "BenchmarkRunner":
        if self.session.closed:
            raise HarnessError(
                "BenchmarkRunner is closed: its worker pool was released;"
                " create a new runner instead of re-entering this one"
            )
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Building and running single cells
    # ------------------------------------------------------------------
    def _build_simulation(
        self,
        benchmark: str,
        controller: NoiseController,
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
        return Simulation(
            processor,
            self._supply(benchmark),
            controller,
            benchmark=benchmark,
            warmup_cycles=config.warmup_cycles,
        )

    def _supply(self, benchmark: str) -> PowerSupply:
        """A fresh supply, with the runner's overlay applied."""
        supply = PowerSupply(
            self.config.supply,
            initial_current=self.config.processor.min_current_amps,
        )
        if self.supply_transform is not None:
            supply = self.supply_transform(supply, benchmark)
        return supply

    def _trace_key(self, benchmark: str, seed: Optional[int]):
        """Front-end key of one base cell, or None when it cannot replay.

        The key digests everything that shapes the per-cycle current
        trace: workload profile, effective trace seed, instruction
        budget, processor config, cycle counts, the base processor's
        ``"null"`` schedule and the supply-overlay token.  Supply
        parameters are deliberately absent -- the base processor's
        currents are supply-independent, so one record serves every
        RLC/detector/response variant.
        """
        from repro.trace import TraceKey, overlay_token

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
            schedule="null",
            overlay=overlay,
        )

    def _run_simulation(
        self,
        benchmark: str,
        controller: NoiseController,
        seed: Optional[int] = None,
    ) -> SimulationResult:
        """Run one cell: replay a recorded base trace when possible, else
        simulate fully (recording a base trace on a store miss).

        Replay is guarded: any load-time doubt -- digest mismatch,
        truncation, corruption -- already degraded to ``load() -> None``
        inside the store (with an incident recorded), so this method
        falls back to the full simulation and, when the front end proves
        replayable (see :class:`~repro.trace.store.TraceCapture`),
        re-records it.
        """
        store = self.session.trace_store
        key = None
        if store is not None and type(controller) is NullController:
            key = self._trace_key(benchmark, seed)
        if key is None:
            simulation = self._build_simulation(benchmark, controller, seed=seed)
            return simulation.run(self.config.n_cycles)

        from repro.trace import TraceCapture
        from repro.trace.replay import ReplaySimulation

        payload = store.load(key, label=benchmark)
        if payload is not None:
            replay = ReplaySimulation(
                payload, self._supply(benchmark), controller, benchmark=benchmark
            )
            return replay.run(self.config.n_cycles)
        simulation = self._build_simulation(benchmark, controller, seed=seed)
        simulation.capture = TraceCapture(key)
        result = simulation.run(self.config.n_cycles)
        if simulation.capture.completed:
            store.save(simulation.capture)
        return result

    def base_key(self, benchmark: str, seed: Optional[int]) -> tuple:
        """The session's key of one base run at this runner's view.

        The sweep configuration and the supply transform (compared by
        identity) are part of the key, so runners of one session at other
        configurations or overlays are never served each other's bases.
        """
        return (benchmark, seed, self.config, self.supply_transform)

    def run_base(
        self,
        benchmark: str,
        seed: Optional[int] = None,
    ) -> SimulationResult:
        """Run (or fetch the session's) uncontrolled base configuration."""
        key = self.base_key(benchmark, seed)
        base = self.session.bases.get(key)
        if base is None:
            base = self._run_simulation(benchmark, NullController(), seed=seed)
            self.session.bases[key] = base
        return base

    def prefetch_base_batch(
        self,
        cells: Sequence[Tuple[str, Optional[int]]],
        timeout_s: Optional[float] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        errors: Optional[Dict[Tuple[str, Optional[int]], Exception]] = None,
    ) -> int:
        """Warm the session's base runs for a sweep's ``(benchmark, seed)`` cells.

        Runs the cells, in the order given, one at a time through
        :meth:`run_base`, so each cell's trace, pipeline and supply are
        freed before the next is built.  Cells the session already holds
        are not rerun; cells whose trace the store already holds are
        skipped, since ``run_base`` replays them cheaply on demand.
        ``should_stop`` is polled before each cell.

        A cell that fails or outlasts ``timeout_s`` is left unheld, and
        its error goes into ``errors`` under the cell, where a sweep
        treats it as that cell's first attempt.  Returns the number of
        cells newly held.
        """
        store = self.session.trace_store
        cached = 0
        for benchmark, seed in cells:
            if should_stop is not None and should_stop():
                break
            if self.base_key(benchmark, seed) in self.session.bases:
                continue
            if store is not None:
                trace_key = self._trace_key(benchmark, seed)
                if trace_key is not None and store.contains(trace_key):
                    continue
            try:
                _call_with_timeout(
                    lambda: self.run_base(benchmark, seed),
                    timeout_s,
                )
            except Exception as error:
                if errors is not None:
                    errors[(benchmark, seed)] = error
                continue
            cached += 1
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

    # ------------------------------------------------------------------
    # Resilient sweeping
    # ------------------------------------------------------------------
    def run_cell(
        self,
        benchmark: str,
        technique: str,
        factory: ControllerFactory,
        resilience: ResilienceConfig,
        base_seed: Optional[int] = None,
        on_attempt: Optional[Callable[[int], None]] = None,
        warmup_error: Optional[Exception] = None,
    ):
        """One (benchmark, technique, seed) cell with timeout and retry.

        Returns ``(metrics, None)`` on success or ``(None, FailureReport)``
        once every attempt -- the original run plus ``max_retries``
        deterministically re-seeded ones -- has failed.  A
        ``warmup_error`` (the cell's base run already failed in
        :meth:`prefetch_base_batch`) is the first attempt's outcome, so
        that base run is not repeated at the same seed.  ``on_attempt``
        fires at the start of each attempt (a pool worker's heartbeat).
        Interrupts (KeyboardInterrupt / SystemExit) always propagate so a
        killed sweep stops at a checkpointed boundary instead of
        "retrying" the kill.
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
                # identical linkage at every worker count.
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
                if on_attempt is not None:
                    on_attempt(attempt)
                try:
                    if attempt == 0 and warmup_error is not None:
                        raise warmup_error
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
    ) -> TechniqueSummary:
        """Run one technique over a (benchmark, seed) grid and aggregate.

        ``factory`` is called once, for a probe controller; every attempt
        runs a fresh copy of the probe restored from the sweep's spec
        (:func:`~repro.sim.checkpoint.sweep_spec`), whose digest keys the
        cells, so factories that build equal controllers share cells.

        ``resilience`` (default: the session's) configures the sweep: with
        a checkpoint path, each completed cell is flushed to the JSON
        checkpoint before the next starts; failed cells are retried on
        re-seeded traces and finally reported as :class:`FailureReport`
        entries; ``resume=True`` reads the checkpoint into the session.
        A cell the session already holds -- computed by an earlier sweep
        of the session or read on resume -- is served, not run, producing
        a summary identical to an uninterrupted sweep.

        ``seeds`` widens the grid: every benchmark runs once per seed
        (default ``(None,)``, today's single-run behaviour), with each
        (benchmark, seed) pair checkpointed as its own cell.  A benchmark
        or seed named twice is one cell: the first mention sets its place.

        The pending cells form one queue
        (:func:`~repro.sim.backends.run_pending`), run in-process at one
        worker and on the session's process pool at ``workers > 1``.  The
        summary (rows, failure order, aggregates) is bit-identical at
        every worker count -- rows are assembled in grid order regardless
        of completion order -- and so is the final checkpoint file (cells
        are keyed, and the JSON is written with sorted keys).
        ``progress`` hears the cells the session already held first, in
        grid order, then each cell as it completes: in grid order at one
        worker, in completion order on the pool.

        The returned summary carries a ``timings`` attribute with the
        per-phase wall-clock breakdown and an ``incidents`` attribute with
        the worker-supervision events (see :class:`TechniqueSummary`).

        Sweeps drain gracefully: SIGTERM or SIGINT during a sweep stops
        dispatching new cells, flushes a final checkpoint (plus a
        ``<checkpoint>.shutdown.json`` summary), and raises
        :class:`~repro.errors.SweepInterrupted` -- the CLI exits nonzero
        but the run resumes with ``--resume``.
        """
        if self.session.closed:
            raise HarnessError(
                "BenchmarkRunner is closed: its session's worker pool was"
                " released; create a new runner to sweep again"
            )
        t_total = time.perf_counter()
        tracer = obs_trace.active_tracer()
        registry = obs_metrics.active_registry()
        with contextlib.ExitStack() as sweep_stack:
            sweep_args = sweep_stack.enter_context(_maybe_span(tracer, "sweep"))
            with _maybe_span(tracer, "setup"):
                resilience = resilience or self.session.resilience
                names = (
                    list(dict.fromkeys(benchmarks))
                    if benchmarks is not None else sorted(SPEC2K)
                )
                seed_list: List[Optional[int]] = (
                    list(dict.fromkeys(seeds)) if seeds is not None
                    else [None]
                )
                if not seed_list:
                    raise ConfigurationError(
                        "seeds must be non-empty when given"
                    )
                # The factory's one call.  The spec pickles the probe with
                # the config and transform before any cell runs: its digest
                # keys the cells and roots the trace.
                probe = factory(self.config.supply, self.config.processor)
                technique = probe.name
                spec_blob, spec = sweep_spec(
                    self.config, self.supply_transform, probe
                )
                checkpoint = self.session.checkpoint(
                    resilience, self.config, spec, technique
                )
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
                workers = max(1, min(resilience.workers, len(pending)))
            if tracer is not None:
                # Every sweep roots its own trace from what it computes,
                # so fixed-seed runs get byte-identical ids.
                sweep_ctx = obs_context.TraceContext.root(
                    f"sweep|{technique}|{spec}|{len(grid)}"
                )
                sweep_args.update(sweep_ctx.span_args())
                sweep_stack.enter_context(obs_context.use_context(sweep_ctx))
            sweep_args.update({
                "technique": technique,
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
            drain = _DrainFlag()
            trace_store = self.session.trace_store
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
                    spec_blob=spec_blob,
                    resilience=resilience,
                    progress=progress,
                    checkpoint=checkpoint,
                    results=results,
                    failure_map=failure_map,
                    timings=timings,
                    drain=drain,
                    pool=self.session.pool,
                    trace_store_root=(
                        None if trace_store is None else trace_store.root
                    ),
                    incidents=incidents,
                )
                run_pending(job, workers)
            timings["execute"] = time.perf_counter() - t_execute
            if trace_store is not None:
                # Hit/miss deltas live in ``timings`` (diagnostics outside
                # the dataclass fields), so a warm-store sweep still
                # fingerprints identical to a cold one.  Guard failures
                # become incidents: the result is still correct (full
                # simulation ran), but the operator should know the store
                # is rotting.  Pool workers keep their own stores and
                # send each cell's stats and incidents back into this
                # one, so the deltas count every cell at any worker count.
                # The pool sends them as cells finish: list them in grid
                # order, so the incidents do not depend on the workers.
                for stat, value in trace_store.stats.items():
                    timings[f"trace_{stat}"] = float(
                        value - trace_stats_before[stat]
                    )
                grid_position: Dict[str, int] = {}
                for position, (name, _) in enumerate(grid):
                    grid_position.setdefault(name, position)
                for event in sorted(
                    trace_store.drain_incidents(),
                    key=lambda e: grid_position.get(
                        e.get("benchmark"), len(grid)
                    ),
                ):
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
            # across worker counts and across supervision incidents.
            object.__setattr__(summary, "timings", timings)
            object.__setattr__(summary, "incidents", tuple(incidents))
            if registry is not None:
                self._record_sweep_metrics(
                    registry, technique, workers, grid, pending, results,
                    failure_map, incidents,
                )
            if len(results) == len(grid) - len(pending):
                # No cell completed, so no flush wrote this sweep's path:
                # write the session's cells there now.
                checkpoint.flush()
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
