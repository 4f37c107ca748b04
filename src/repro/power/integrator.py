"""Heun-formula (improved Euler) integration of the Figure 1(b) circuit.

The paper solves the power-supply state equations with the Heun Formula
(Section 4.1, citing Boyce & DiPrima); we do the same.  State variables are
the die-node voltage deviation ``v`` (across the on-die capacitor) and the
inductor current ``i_l`` flowing from the supply to the die:

    C dv/dt   = i_l - i_cpu(t)
    L di_l/dt = -v - R i_l

With a constant CPU current the steady state is ``v = -R i_cpu`` (the IR
drop).  Following Section 4.1 the IR drop is unrelated to inductive noise and
is subtracted out by :class:`repro.power.supply.PowerSupply`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import PowerSupplyConfig
from repro.errors import ConfigurationError

__all__ = ["CircuitState", "HeunIntegrator"]


@dataclass
class CircuitState:
    """Instantaneous circuit state: capacitor voltage and inductor current."""

    voltage: float = 0.0
    inductor_current: float = 0.0

    def copy(self) -> "CircuitState":
        return CircuitState(self.voltage, self.inductor_current)


class HeunIntegrator:
    """Steps the RLC state one processor cycle at a time.

    The CPU current is treated as piecewise constant over each step, matching
    the cycle-granularity current reported by the architectural simulator.
    ``substeps`` subdivides each cycle for extra accuracy; the default of 1
    matches the paper's cycle-level solver and is accurate to well under a
    percent for the Table 1 circuit (omega0 * dt is about 0.06).
    """

    def __init__(self, config: PowerSupplyConfig, substeps: int = 1):
        if substeps < 1:
            raise ConfigurationError("substeps must be at least 1")
        self.config = config
        self.substeps = substeps
        self._dt = config.cycle_seconds / substeps
        self._inv_c = 1.0 / config.capacitance_farads
        self._inv_l = 1.0 / config.inductance_henries
        self._r = config.resistance_ohms
        self.state = CircuitState()

    def reset(self, cpu_current: float = 0.0) -> None:
        """Reset to the steady state for a constant ``cpu_current``.

        Steady state has the full CPU current supplied through the inductor
        and the capacitor voltage at the IR droop.
        """
        self.state = CircuitState(
            voltage=-self._r * cpu_current, inductor_current=cpu_current
        )

    def coefficients(self) -> "tuple[float, float, float, float, int]":
        """``(dt, 1/C, 1/L, R, substeps)`` exactly as the step loop uses them.

        Public access for the vectorized cycle kernel
        (``repro.core.kernel``), which must replay the recurrence with
        bit-identical constants rather than re-deriving them from the
        config (a second ``1.0 / C`` is equal here, but the contract is
        "the same float objects the scalar loop multiplies by").
        """
        return self._dt, self._inv_c, self._inv_l, self._r, self.substeps

    def step(self, cpu_current: float) -> float:
        """Advance one processor cycle with the given CPU current (amps).

        Returns the raw die-node voltage deviation (IR drop *not* removed).
        """
        state = self.state
        v = state.voltage
        i_l = state.inductor_current
        dt, inv_c, inv_l, r = self._dt, self._inv_c, self._inv_l, self._r
        for _ in range(self.substeps):
            # Heun: derivatives at the start, an Euler predictor, derivatives
            # at the prediction, then the averaged step.
            dv1 = (i_l - cpu_current) * inv_c
            di1 = (-v - r * i_l) * inv_l
            v_pred = v + dt * dv1
            i_pred = i_l + dt * di1
            dv2 = (i_pred - cpu_current) * inv_c
            di2 = (-v_pred - r * i_pred) * inv_l
            v += 0.5 * dt * (dv1 + dv2)
            i_l += 0.5 * dt * (di1 + di2)
        state.voltage = v
        state.inductor_current = i_l
        return v
