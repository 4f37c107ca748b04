"""Cycle-level power-supply simulation with noise-margin tracking.

:class:`PowerSupply` wraps the Heun integrator, subtracts the IR drop
(Section 4.1: "we ignore the IR drop and assume that the power supply is
capable of maintaining a supply voltage of Vdd at any constant current
level") and flags noise-margin violations whenever the reported deviation
exceeds the +/-5 % margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as np

from repro.config import PowerSupplyConfig
from repro.errors import FaultError, SimulationError
from repro.power.integrator import HeunIntegrator
from repro.power.rlc import RLCAnalysis

__all__ = ["SupplyTrace", "PowerSupply"]


@dataclass
class SupplyTrace:
    """Recorded per-cycle history of a :class:`PowerSupply` run."""

    currents: List[float] = field(default_factory=list)
    voltages: List[float] = field(default_factory=list)
    violations: List[bool] = field(default_factory=list)

    def as_arrays(self):
        """Return ``(currents, voltages, violations)`` as numpy arrays."""
        return (
            np.asarray(self.currents),
            np.asarray(self.voltages),
            np.asarray(self.violations, dtype=bool),
        )


class PowerSupply:
    """Per-cycle power-supply model: ``step(current) -> voltage deviation``.

    Parameters
    ----------
    config:
        Circuit and margin parameters.
    initial_current:
        CPU current assumed before cycle 0; the circuit starts in the
        corresponding steady state so start-up transients do not register as
        inductive noise.
    record:
        When True, keep the full per-cycle history in :attr:`trace`.
    substeps:
        Integrator substeps per processor cycle.
    """

    def __init__(
        self,
        config: PowerSupplyConfig,
        initial_current: float = 0.0,
        record: bool = False,
        substeps: int = 1,
    ):
        self.config = config
        self.analysis = RLCAnalysis(config)
        self._integrator = HeunIntegrator(config, substeps=substeps)
        self._integrator.reset(initial_current)
        self._margin = config.noise_margin_volts
        self._record = record
        self.trace: Optional[SupplyTrace] = SupplyTrace() if record else None
        self.cycle = 0
        self.violation_cycles = 0
        self.violation_events = 0
        self._in_violation = False
        self.last_voltage = 0.0
        self.first_violation_cycle: Optional[int] = None

    @property
    def noise_margin_volts(self) -> float:
        return self._margin

    def reset(self, initial_current: float = 0.0) -> None:
        """Return to the steady state and clear all statistics."""
        self._integrator.reset(initial_current)
        self.cycle = 0
        self.violation_cycles = 0
        self.violation_events = 0
        self._in_violation = False
        self.last_voltage = 0.0
        self.first_violation_cycle = None
        if self._record:
            self.trace = SupplyTrace()

    def reset_violation_tracking(self) -> None:
        """Forget in-progress violation bookkeeping at a measurement boundary.

        Called by the simulation loop at the end of warmup:
        ``first_violation_cycle`` set by a warmup transient must not leak
        into steady-state results (the paper measures violations in steady
        state only), and a violation spanning the boundary must register as
        a fresh steady-state event rather than riding on a warmup-started
        one.  Cumulative counters are untouched -- the caller differences
        them against its own snapshot.
        """
        self.first_violation_cycle = None
        self._in_violation = False

    def step(self, cpu_current: float) -> float:
        """Advance one cycle; return the IR-drop-corrected voltage deviation.

        Raises :class:`FaultError` on a non-finite input current (a faulty
        upstream model must not silently poison the integrator state) and
        :class:`SimulationError` if the integrated voltage itself leaves the
        finite range (numerical blow-up), so garbage never reaches metrics.
        """
        if not math.isfinite(cpu_current):
            raise FaultError(
                f"non-finite CPU current {cpu_current!r} at cycle {self.cycle}"
            )
        raw = self._integrator.step(cpu_current)
        voltage = raw + self.config.resistance_ohms * cpu_current
        if not math.isfinite(voltage):
            raise SimulationError(
                f"power-supply voltage diverged ({voltage!r}) at cycle"
                f" {self.cycle}; integrator state is no longer trustworthy"
            )
        violated = abs(voltage) > self._margin
        if violated:
            self.violation_cycles += 1
            if not self._in_violation:
                self.violation_events += 1
            if self.first_violation_cycle is None:
                self.first_violation_cycle = self.cycle
        self._in_violation = violated
        self.last_voltage = voltage
        if self._record:
            self.trace.currents.append(cpu_current)
            self.trace.voltages.append(voltage)
            self.trace.violations.append(violated)
        self.cycle += 1
        return voltage

    def run(self, currents: Iterable[float]) -> np.ndarray:
        """Step through a whole current waveform; return the voltage waveform.

        Delegates to :func:`repro.core.kernel.run_supply`: the vectorized
        cycle kernel (bit-identical to the per-cycle ``step`` loop,
        including error and bookkeeping semantics) for a plain
        ``PowerSupply``, the ``step`` loop for a subclass.
        """
        from repro.core import kernel as core_kernel

        return core_kernel.run_supply(self, list(currents))

    @property
    def violation_fraction(self) -> float:
        """Fraction of simulated cycles spent beyond the noise margin."""
        if self.cycle == 0:
            return 0.0
        return self.violation_cycles / self.cycle

    def metrics_snapshot(self) -> dict:
        """Plain-data counters for the observability harvest.

        Read once per run end (never in the cycle loop), so the supply's
        hot path stays untouched when metrics are enabled.
        """
        return {
            "cycles": self.cycle,
            "violation_cycles": self.violation_cycles,
            "violation_events": self.violation_events,
        }
