"""Replay a recorded current trace through the supply/detector stages.

:class:`ReplaySimulation` is a :class:`~repro.sim.simulation.Simulation`
whose "processor" is a stub that deals out the recorded per-cycle currents
and re-derives the energy accounting, skipping the uarch pipeline (the
dominant cost of a run) entirely.  It replaces only the open loop's
current stage; everything downstream -- the supply stage, violation
tracking, metrics harvesting -- is the *real* simulation code, so a
replayed result is bit-identical to a full run of the same front end.

Only the base processor (:class:`NullController`) replays: the recorded
trace embeds the controller's effect on the processor, and every other
controller reacts to what it observes, which needs the pipeline in the
loop.
"""

from __future__ import annotations

from typing import Optional

from repro.core.controller import NoiseController, NullController
from repro.errors import TraceStoreError
from repro.power.supply import PowerSupply
from repro.sim.simulation import Simulation
from repro.trace.store import TracePayload, energy_ledger

__all__ = ["ReplayFrontEnd", "ReplaySimulation"]


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
    """Feed a recorded trace of the base processor through the supply.

    The current stage reads the payload instead of stepping the pipeline;
    the supply stage is the open loop's own, so a plain
    :class:`PowerSupply` advances on the kernel and an overlay supply
    (e.g. a :class:`~repro.faults.attacker.ResonantAttacker` wrap) is
    stepped, exactly as in a full run.  Errors the supply would raise
    mid-run (:class:`~repro.errors.FaultError` guards, overlay faults)
    surface at the same cycle as in a full run.
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
        if type(self.controller) is not NullController:
            raise TraceStoreError(
                f"controller {self.controller.name!r} closes a feedback "
                f"loop; it cannot replay a recorded trace"
            )

    def run(self, n_cycles: int):
        if n_cycles != self._payload.n_cycles:
            raise TraceStoreError(
                f"recorded trace covers {self._payload.n_cycles} measured "
                f"cycles; asked to replay {n_cycles}"
            )
        return super().run(n_cycles)

    def _stage_currents(self, n_cycles: int):
        front_end = self.processor
        currents = self._payload.currents
        front_end.advance_to_boundary()
        snapshot = self._snapshot()
        front_end.advance_to_end()
        if self.record:
            # The recorded trace sees plain floats, as in a full run;
            # run_supply takes the array as it is.
            currents = currents.tolist()
        return currents, snapshot
