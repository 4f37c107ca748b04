"""The cycle loop: processor -> power supply -> noise controller.

Each cycle the controller's directives (computed from everything observed
up to the previous cycle) steer the processor; the processor's current
drives the power supply; the resulting current and voltage are fed back to
the controller.  This ordering gives every technique an inherent one-cycle
sensing loop, on top of which techniques model their own sensor and
actuation delays.
"""

from __future__ import annotations

import contextlib
from typing import List, Optional, Sequence, Union

from repro.core import kernel as core_kernel
from repro.core.controller import NoiseController, NullController
from repro.errors import SimulationError
from repro.obs import context as obs_context
from repro.obs import metrics
from repro.obs import trace as obs_trace
from repro.power.supply import PowerSupply
from repro.sim.metrics import SimulationResult
from repro.uarch.processor import Processor

__all__ = ["Simulation", "run_batch"]


class Simulation:
    """Wires one processor, one power supply and one controller together."""

    def __init__(
        self,
        processor: Processor,
        supply: PowerSupply,
        controller: Optional[NoiseController] = None,
        record: bool = False,
        benchmark: str = "workload",
        warmup_cycles: int = 0,
    ):
        if warmup_cycles < 0:
            raise SimulationError("warmup_cycles must be non-negative")
        self.processor = processor
        self.supply = supply
        self.controller = controller or NullController()
        self.record = record
        self.benchmark = benchmark
        self.warmup_cycles = warmup_cycles
        self.currents: Optional[list] = [] if record else None
        self.voltages: Optional[list] = [] if record else None
        #: Optional repro.trace.TraceCapture recording the *full*
        #: (warmup + measured) current trace for the record/replay store.
        #: Unlike ``record``, which keeps measured cycles for diagnostics,
        #: a capture must cover warmup too -- replay re-rings the supply
        #: through it.  The sweep runner attaches one on a store miss.
        self.capture = None
        self._ran = False

    def run(self, n_cycles: int) -> SimulationResult:
        """Run ``n_cycles`` (after any warmup) and return the result record.

        Warmup cycles execute normally -- the controller runs, the supply
        rings -- but are excluded from every reported statistic, mirroring
        the paper's fast-forward past initialization (its violations are
        measured in steady state, not during the power-on ramp).
        """
        if n_cycles <= 0:
            raise SimulationError("n_cycles must be positive")
        if self._ran:
            raise SimulationError("a Simulation object runs exactly once")
        self._ran = True

        # Let the power model convert amps to joules.
        self.processor.power.attach_supply(
            self.supply.config.vdd_volts, self.supply.config.cycle_seconds
        )

        with contextlib.ExitStack() as stack:
            self._enter_run_span(stack, n_cycles)
            if self.kernel_eligible():
                stage = self._kernel_collect(n_cycles)
                snapshot = self._kernel_advance_supply(stage)
            else:
                snapshot = self._scalar_cycle_loop(n_cycles)

        return self._assemble_result(snapshot, n_cycles)

    def _enter_run_span(self, stack: contextlib.ExitStack, n_cycles: int) -> None:
        tracer = obs_trace.active_tracer()
        if tracer is not None:
            # The kernel span chains off the enclosing cell span's context
            # (when one is current) so a job's trace links down to the
            # simulation itself.
            parent_ctx = obs_context.current_context()
            ctx = None
            if parent_ctx is not None:
                ctx = parent_ctx.child(
                    f"run|{self.benchmark}|{self.controller.name}|{n_cycles}"
                )
            stack.enter_context(tracer.span(
                f"run {self.benchmark}",
                cat=obs_trace.CAT_SIM,
                args={
                    "benchmark": self.benchmark,
                    "technique": self.controller.name,
                    "n_cycles": n_cycles,
                    "warmup_cycles": self.warmup_cycles,
                },
                ctx=ctx,
            ))

    # ------------------------------------------------------------------
    # Scalar cycle loop (reference semantics; always available via
    # REPRO_KERNEL=0 and for every controller but the base processor's)
    # ------------------------------------------------------------------
    def _scalar_cycle_loop(self, n_cycles: int) -> dict:
        processor = self.processor
        supply = self.supply
        controller = self.controller
        record = self.record
        capture = self.capture
        stage_capture = None if capture is None else capture.currents.append
        snapshot = self._snapshot()
        for cycle in range(self.warmup_cycles + n_cycles):
            if cycle == self.warmup_cycles:
                # Steady state starts here: warmup transients must
                # neither pin first_violation_cycle nor merge a
                # boundary-spanning violation into a warmup-started
                # event.
                reset_tracking = getattr(
                    supply, "reset_violation_tracking", None
                )
                if reset_tracking is not None:
                    reset_tracking()
                snapshot = self._snapshot()
            directives = controller.directives(cycle)
            stats = processor.step(directives)
            if stage_capture is not None:
                stage_capture(stats.current_amps)
            voltage = supply.step(stats.current_amps)
            controller.observe(cycle, stats.current_amps, voltage, stats)
            if record and cycle >= self.warmup_cycles:
                self.currents.append(stats.current_amps)
                self.voltages.append(voltage)
        return snapshot

    # ------------------------------------------------------------------
    # Kernel fast path (repro.core.kernel): run the processor trace
    # first, then advance the supply in bulk -- bit-identical to the
    # scalar loop for the base processor.
    # ------------------------------------------------------------------
    def kernel_eligible(self) -> bool:
        """Can this run take the vectorized kernel fast path?

        Requires the kernel to be enabled (``REPRO_KERNEL``), the base
        processor's :class:`NullController` (its directives do not depend
        on the supply and its ``observe`` is a no-op, so the processor
        trace can run first), and a plain :class:`PowerSupply`
        (subclasses may override ``step`` and must get the scalar loop).
        """
        return (
            core_kernel.kernel_enabled()
            and type(self.controller) is NullController
            and type(self.supply) is PowerSupply
        )

    def _kernel_collect(self, n_cycles: int):
        """Stage 1: run the processor trace and capture the currents.

        The processor is still stepped cycle by cycle (its pipeline is
        inherently serial), but the supply and controller are out of the
        loop entirely.  Returns the staged currents and the
        warmup-boundary snapshot with its supply fields still pending.
        """
        warmup = self.warmup_cycles
        directives_of = self.controller.directives
        step = self.processor.step
        currents: list = []
        stage_current = currents.append
        snapshot = self._snapshot()
        for cycle in range(warmup + n_cycles):
            if cycle == warmup:
                snapshot = self._snapshot()
            stage_current(step(directives_of(cycle)).current_amps)
        if self.capture is not None:
            self.capture.currents.extend(currents)
        return currents, snapshot

    def _kernel_advance_supply(self, stage) -> dict:
        """Stage 2: bulk supply advance, split at the warmup boundary.

        Exactly mirrors the scalar loop: the warmup prefix rings the
        supply, the violation tracking resets at the boundary, the
        boundary snapshot picks up the supply counters as of that reset,
        and only then does the measured region run.
        """
        currents, _ = stage
        core_kernel.run_supply(self.supply, currents[:self.warmup_cycles])
        snapshot = self._kernel_boundary(stage)
        measured_volts = core_kernel.run_supply(
            self.supply, currents[self.warmup_cycles:]
        )
        self._kernel_record(stage, measured_volts)
        return snapshot

    def _kernel_boundary(self, stage) -> dict:
        """Warmup-boundary bookkeeping once the warmup prefix has run."""
        _, snapshot = stage
        supply = self.supply
        supply.reset_violation_tracking()
        snapshot["violation_cycles"] = supply.violation_cycles
        snapshot["violation_events"] = supply.violation_events
        return snapshot

    def _kernel_record(self, stage, measured_volts) -> None:
        """Keep a kernel run's measured trace when ``record`` is set."""
        if self.record:
            currents, _ = stage
            self.currents.extend(currents[self.warmup_cycles:])
            self.voltages.extend(measured_volts.tolist())

    def _assemble_result(self, snapshot: dict, n_cycles: int) -> SimulationResult:
        end = self._snapshot()
        if self.capture is not None:
            # Replayability proof: the captured trace must re-derive this
            # run's energy ledger bit-for-bit (see TraceCapture.finish).
            # A failed proof leaves the capture incomplete -- it is simply
            # never persisted; the run's own result is untouched.
            config = self.supply.config
            self.capture.finish(
                snapshot, end, config.vdd_volts, config.cycle_seconds
            )
        # The technique's own hardware energy (Section 4.1 charges tuning's
        # detection hardware this way) counts against it.
        overhead = self.controller.overhead_energy_joules(n_cycles)
        result = SimulationResult(
            benchmark=self.benchmark,
            technique=self.controller.name,
            cycles=n_cycles,
            instructions=end["instructions"] - snapshot["instructions"],
            energy_joules=end["energy"] - snapshot["energy"] + overhead,
            phantom_energy_joules=end["phantom"] - snapshot["phantom"],
            violation_cycles=end["violation_cycles"] - snapshot["violation_cycles"],
            violation_events=end["violation_events"] - snapshot["violation_events"],
            first_level_cycles=end["first_level"] - snapshot["first_level"],
            second_level_cycles=end["second_level"] - snapshot["second_level"],
            currents=self.currents,
            voltages=self.voltages,
        )
        registry = metrics.active_registry()
        if registry is not None:
            self._harvest_metrics(registry, result)
        return result

    def _harvest_metrics(self, registry, result) -> None:
        """Fold this run's counters into the active metrics registry.

        Called once per run (never per cycle): everything here is read
        from counters the simulation, detector and supply already keep,
        so enabling metrics does not perturb the hot loop.
        """
        labels = {"technique": result.technique}
        registry.counter(
            "sim_runs_total", help="completed simulation runs"
        ).inc(labels=labels)
        registry.counter(
            "sim_cycles_total", help="measured (post-warmup) cycles simulated"
        ).inc(result.cycles)
        registry.counter(
            "sim_instructions_total", help="instructions committed"
        ).inc(result.instructions)
        registry.counter(
            "sim_violation_cycles_total",
            help="cycles beyond the noise margin",
        ).inc(result.violation_cycles)
        registry.counter(
            "sim_violation_events_total",
            help="distinct noise-margin violation events",
        ).inc(result.violation_events)
        registry.counter(
            "sim_first_level_cycles_total",
            help="cycles under the first-level (gentle) response",
        ).inc(result.first_level_cycles)
        registry.counter(
            "sim_second_level_cycles_total",
            help="cycles under the second-level (stall) response",
        ).inc(result.second_level_cycles)
        detector = getattr(self.controller, "detector", None)
        if detector is not None:
            events = registry.counter(
                "sim_resonant_events_total",
                help="resonant events detected, by transition polarity",
            )
            for polarity, count in detector.events_by_polarity.items():
                events.inc(count, labels={"polarity": polarity.name.lower()})
            registry.counter(
                "sim_detector_comparisons_total",
                help="quarter-period adder comparisons performed",
            ).inc(detector.comparisons)
        for attribute, name, help_text in (
            ("first_level_engagements", "sim_first_level_engagements_total",
             "first-level response activations"),
            ("second_level_engagements", "sim_second_level_engagements_total",
             "second-level response activations"),
            ("watchdog_releases", "sim_watchdog_releases_total",
             "second-level holds force-released by the watchdog"),
        ):
            value = getattr(self.controller, attribute, None)
            if value is not None:
                registry.counter(name, help=help_text).inc(value)

    def _snapshot(self) -> dict:
        fractions = self.controller.response_cycle_fractions
        return {
            "instructions": self.processor.committed_instructions,
            "energy": self.processor.total_energy_joules,
            "phantom": self.processor.phantom_energy_joules,
            "violation_cycles": self.supply.violation_cycles,
            "violation_events": self.supply.violation_events,
            "first_level": fractions.get("first_level_cycles", 0),
            "second_level": fractions.get("second_level_cycles", 0),
        }


# ----------------------------------------------------------------------
# Batched entry point: several independent simulations advanced with
# their supply lanes batched through repro.core.kernel.run_supply_batch.
# No sweep calls it: a batch keeps every lane's front end alive at once,
# so the sweep's base prefetch runs cells one at a time instead.
# ----------------------------------------------------------------------
def run_batch(
    simulations: Sequence[Simulation],
    n_cycles: int,
    guard=None,
    should_stop=None,
) -> List[Union[SimulationResult, BaseException, None]]:
    """Run several simulations, batching the supply advance across lanes.

    Every result is bit-identical to what ``simulations[i].run(n_cycles)``
    would have produced: the per-lane processor traces still run
    serially (the pipeline is inherently sequential), but the Heun
    supply recurrences of all lanes advance together through NumPy
    elementwise ops, which are IEEE-identical per lane to the scalar
    recurrence.

    Per-lane outcomes, index-aligned with ``simulations``:

    * a :class:`SimulationResult` on success;
    * the raised exception if that lane failed (the other lanes keep
      going) -- the same exception ``run`` would have raised;
    * ``None`` if ``should_stop`` interrupted the batch before the lane
      started (such simulations remain fresh and runnable).

    ``guard`` optionally wraps each lane's trace-collection stage (the
    dominant cost), for example to enforce a per-lane timeout.  Lanes
    the kernel cannot take (a controller other than the base processor's,
    or the kernel disabled) fall back to their own ``run``.
    """
    outcomes: List[Union[SimulationResult, BaseException, None]]
    outcomes = [None] * len(simulations)
    staged = []  # (lane, sim, stage)
    for lane, sim in enumerate(simulations):
        if should_stop is not None and should_stop():
            break
        try:
            if n_cycles <= 0:
                raise SimulationError("n_cycles must be positive")
            if sim._ran:
                raise SimulationError("a Simulation object runs exactly once")
            if not sim.kernel_eligible():
                outcomes[lane] = sim.run(n_cycles)
                continue
            sim._ran = True
            sim.processor.power.attach_supply(
                sim.supply.config.vdd_volts, sim.supply.config.cycle_seconds
            )
            with contextlib.ExitStack() as stack:
                sim._enter_run_span(stack, n_cycles)
                if guard is None:
                    stage = sim._kernel_collect(n_cycles)
                else:
                    stage = guard(lambda s=sim: s._kernel_collect(n_cycles))
            staged.append((lane, sim, stage))
        except Exception as exc:
            outcomes[lane] = exc

    # Lanes must share a trace length to stack; group by warmup split.
    by_warmup: dict = {}
    for item in staged:
        by_warmup.setdefault(item[1].warmup_cycles, []).append(item)

    for warmup, group in sorted(by_warmup.items()):
        warm_volts = core_kernel.run_supply_batch(
            [sim.supply for _, sim, _ in group],
            [stage[0][:warmup] for _, _, stage in group],
        )
        survivors = []
        for (lane, sim, stage), warm in zip(group, warm_volts):
            if isinstance(warm, BaseException):
                outcomes[lane] = warm
                continue
            snapshot = sim._kernel_boundary(stage)
            survivors.append((lane, sim, stage, snapshot))
        measured_volts = core_kernel.run_supply_batch(
            [sim.supply for _, sim, _, _ in survivors],
            [stage[0][warmup:] for _, _, stage, _ in survivors],
        )
        for (lane, sim, stage, snapshot), measured in zip(
            survivors, measured_volts
        ):
            if isinstance(measured, BaseException):
                outcomes[lane] = measured
                continue
            try:
                sim._kernel_record(stage, measured)
                outcomes[lane] = sim._assemble_result(snapshot, n_cycles)
            except Exception as exc:  # pragma: no cover - defensive
                outcomes[lane] = exc
    return outcomes
