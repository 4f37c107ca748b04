"""Controller interface shared by resonance tuning and the baselines.

A noise controller sees, each cycle, the processor current (what the
on-die sensors report on) and the supply-voltage deviation (what ref [10]
senses), and produces the next cycle's :class:`ControlDirectives`.

The simulation loop calls ``directives(cycle)`` *before* stepping the
processor and ``observe(cycle, ...)`` after, so a controller's reaction to
cycle ``t`` can influence cycle ``t + 1`` at the earliest -- a one-cycle
sensing loop, on top of which each technique models its own extra delay.
"""

from __future__ import annotations

import abc

from repro.uarch.pipeline import ControlDirectives, NO_CONTROL

__all__ = ["NoiseController", "NullController"]


class NoiseController(abc.ABC):
    """Per-cycle control interface for inductive-noise techniques."""

    #: short identifier used in result tables
    name: str = "controller"

    @abc.abstractmethod
    def directives(self, cycle: int) -> ControlDirectives:
        """Directives to apply to the processor in ``cycle``."""

    @abc.abstractmethod
    def observe(
        self,
        cycle: int,
        current_amps: float,
        voltage_volts: float,
        stats=None,
    ) -> None:
        """Record what happened in ``cycle`` after the processor stepped.

        ``stats`` is the cycle's :class:`~repro.uarch.pipeline.CycleStats`
        when available (the damping baseline reads its per-cycle issued
        current estimate from it); synthetic open-loop drivers may omit it.
        """

    @property
    def response_cycle_fractions(self) -> dict:
        """Fractions of cycles spent in each response level (for tables)."""
        return {}

    def overhead_energy_joules(self, n_cycles: int) -> float:
        """Energy the technique's own hardware consumed over ``n_cycles``.

        Charged on top of the processor energy by the simulation (the paper
        models resonance tuning's detection hardware this way, Section 4.1);
        the default is zero for techniques whose hardware we do not cost.
        """
        return 0.0


class NullController(NoiseController):
    """The base processor: no noise control at all."""

    name = "base"

    def directives(self, cycle: int) -> ControlDirectives:
        return NO_CONTROL

    def observe(
        self, cycle: int, current_amps: float, voltage_volts: float, stats=None
    ) -> None:
        return None
