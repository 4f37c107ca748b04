"""Replay a recorded current trace through the supply/detector stages.

:class:`ReplaySimulation` is a :class:`~repro.sim.simulation.Simulation`
whose "processor" is a stub that deals out the recorded per-cycle currents
and re-derives the energy accounting, skipping the uarch pipeline (the
dominant cost of a run) entirely.  Everything downstream -- the supply
recurrence, violation tracking, detector/controller observation, metrics
harvesting -- is the *real* simulation code, including the vectorized
kernel fast path, so a replayed result is bit-identical to a full run of
the same front end.

Replay is only sound for controllers whose directive schedule is a pure
function of the cycle index (:attr:`NoiseController.feedback_free`): the
recorded trace embeds the schedule's effect on the processor, so a
controller that reacts to what it observes would need the pipeline in the
loop.  :func:`schedule_token` is the gate -- ``None`` means "this
controller cannot replay", anything else names the schedule inside the
store key.
"""

from __future__ import annotations

from typing import Optional

from repro.core.controller import NoiseController, NullController
from repro.errors import TraceStoreError
from repro.power.supply import PowerSupply
from repro.sim.simulation import Simulation
from repro.trace.store import TracePayload, energy_ledger

__all__ = ["ReplayFrontEnd", "ReplaySimulation", "schedule_token"]


def schedule_token(controller: Optional[NoiseController]) -> Optional[str]:
    """Name the controller's directive schedule, or ``None`` if unreplayable.

    ``NullController`` (every base cell) is the ``"null"`` schedule.  Other
    feedback-free controllers may opt in by exposing a non-empty string
    attribute ``directive_schedule_token`` that changes whenever their
    directive schedule changes; declaring one also promises that
    ``observe`` tolerates ``stats=None`` (the pipeline is skipped, so
    there are no per-cycle stats to deliver) without altering any
    reported statistic -- which :attr:`NoiseController.feedback_free`
    already requires.  Controllers that close a feedback loop return
    ``None`` and always run the full simulation.
    """
    if controller is None or type(controller) is NullController:
        return "null"
    if not getattr(controller, "feedback_free", False):
        return None
    token = getattr(controller, "directive_schedule_token", None)
    if isinstance(token, str) and token:
        return f"declared:{token}"
    return None


class ReplayFrontEnd:
    """Stand-in for :class:`~repro.uarch.processor.Processor` during replay.

    Re-derives the energy ledger from the recorded currents with
    :func:`~repro.trace.store.energy_ledger`, the function whose result
    :class:`~repro.trace.store.TraceCapture` proved equal to the power
    model's, so the ledger is bit-identical for *any* supply the replay
    attaches -- recorded traces are supply-independent and one record
    serves every RLC variant.  Committed-instruction counts are integers
    carried verbatim in the payload; phantom energy is identically zero
    (captures with phantom energy are never recorded).
    """

    def __init__(self, payload: TracePayload):
        self.payload = payload
        self._ledger = (0.0, 0.0)
        self.total_energy_joules = 0.0
        self.committed_instructions = 0
        self.phantom_energy_joules = 0.0

    @property
    def power(self) -> "ReplayFrontEnd":
        # Simulation only uses processor.power for attach_supply.
        return self

    def attach_supply(self, vdd_volts: float, cycle_seconds: float) -> None:
        payload = self.payload
        self._ledger = energy_ledger(
            payload.currents, payload.warmup_cycles, vdd_volts, cycle_seconds
        )

    def advance_to_boundary(self) -> None:
        self.total_energy_joules = self._ledger[0]
        self.committed_instructions = self.payload.instructions_warmup

    def advance_to_end(self) -> None:
        self.total_energy_joules = self._ledger[1]
        self.committed_instructions = self.payload.instructions_total


class ReplaySimulation(Simulation):
    """Feed a recorded trace to the supply/controller stages, bit-exactly.

    The kernel-vectorized path and the scalar loop are both supported:
    a plain :class:`PowerSupply` under an enabled kernel takes
    ``run_supply`` exactly as a full simulation would, while overlay
    supplies (e.g. a :class:`~repro.faults.attacker.ResonantAttacker`
    wrap) and ``REPRO_KERNEL=0`` runs use a per-cycle loop that mirrors
    ``Simulation._scalar_cycle_loop`` minus the processor step.  Errors
    the supply would raise mid-run (:class:`~repro.errors.FaultError`
    guards, overlay faults) surface at the same cycle as in a full run.
    """

    def __init__(
        self,
        payload: TracePayload,
        supply: PowerSupply,
        controller: Optional[NoiseController] = None,
        record: bool = False,
        benchmark: str = "workload",
    ):
        super().__init__(
            ReplayFrontEnd(payload),
            supply,
            controller=controller,
            record=record,
            benchmark=benchmark,
            warmup_cycles=payload.warmup_cycles,
        )
        self._payload = payload
        if schedule_token(self.controller) is None:
            raise TraceStoreError(
                f"controller {self.controller.name!r} closes a feedback "
                f"loop (or declares no schedule token); it cannot replay "
                f"a recorded trace"
            )

    def run(self, n_cycles: int):
        if n_cycles != self._payload.n_cycles:
            raise TraceStoreError(
                f"recorded trace covers {self._payload.n_cycles} measured "
                f"cycles; asked to replay {n_cycles}"
            )
        return super().run(n_cycles)

    # -- kernel fast path: the collect stage reads the payload instead of
    # stepping the pipeline; _kernel_advance_supply/_kernel_boundary/
    # _kernel_deliver/_assemble_result are inherited unchanged.
    def _kernel_collect(self, n_cycles: int):
        front_end = self.processor
        controller = self.controller
        currents = self._payload.currents
        front_end.advance_to_boundary()
        snapshot = self._snapshot()
        front_end.advance_to_end()
        if type(controller) is NullController:
            stats_log = None
        else:
            # Feedback-free declarers get their observe calls (late, as
            # the kernel path always delivers them) with stats=None.
            stats_log = [None] * len(currents)
        if stats_log is not None or self.record:
            # observe and the recorded trace see plain floats, as in a
            # full run; run_supply takes the array as it is.
            currents = currents.tolist()
        return currents, stats_log, snapshot

    # -- scalar path: REPRO_KERNEL=0 or an overlay-wrapped supply.
    def _scalar_cycle_loop(self, n_cycles: int) -> dict:
        front_end = self.processor
        supply = self.supply
        controller = self.controller
        currents = self._payload.currents.tolist()
        record = self.record
        warmup = self.warmup_cycles
        observe = (
            None if type(controller) is NullController else controller.observe
        )
        snapshot = self._snapshot()
        for cycle in range(warmup + n_cycles):
            if cycle == warmup:
                reset_tracking = getattr(
                    supply, "reset_violation_tracking", None
                )
                if reset_tracking is not None:
                    reset_tracking()
                front_end.advance_to_boundary()
                snapshot = self._snapshot()
            amps = currents[cycle]
            voltage = supply.step(amps)
            if observe is not None:
                observe(cycle, amps, voltage, None)
            if record and cycle >= warmup:
                self.currents.append(amps)
                self.voltages.append(voltage)
        front_end.advance_to_end()
        return snapshot
