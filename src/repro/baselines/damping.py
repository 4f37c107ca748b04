"""The pipeline-damping baseline of Powell & Vijaykumar, ISCA'03 (ref [14]).

Damping bounds the *estimated* current variation over a damping window of
half the resonant period: within any window, the per-cycle issued-current
estimate may move at most ``delta`` amps peak to peak.  The estimate is
a-priori and per instruction class, in 0.5 A units (Section 5.3.2), and the
issue queue enforces the bound every cycle -- the upper bound by refusing
to issue more current, the lower bound by issuing phantom operations.

Following Section 5.3.2, damping is applied at the resonant period only
(window 50 cycles for the 100-cycle Table 1 period); covering the whole
resonance band instead requires tightening ``delta``, which Tables 5's
0.5x and 0.25x rows evaluate.  Per the paper's generous assumption, the
issue-queue modifications damping needs are not charged any extra delay.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from repro.config import PowerSupplyConfig, ProcessorConfig
from repro.core.controller import NoiseController
from repro.errors import ConfigurationError
from repro.power.rlc import RLCAnalysis
from repro.uarch.pipeline import ControlDirectives, NO_CONTROL

__all__ = ["PipelineDampingController"]


class PipelineDampingController(NoiseController):
    """Bounds per-window current variation via issue control (ref [14]).

    ``window_cycles`` may also be a sequence of window lengths: the
    *band-covering* variant the paper mentions but declines ("extend the
    per-cycle decisions to cover the range of frequencies in the band ...
    would complicate the issue queue further").  Each window keeps its own
    history and the issue bounds are the intersection of every window's
    bounds -- strictly stronger damping at strictly higher hardware cost,
    which the ``multiwindow-damping`` experiment quantifies
    (:func:`repro.experiments.ablations.run_multiwindow_damping`).
    """

    name = "pipeline-damping"

    def __init__(
        self,
        supply_config: PowerSupplyConfig,
        processor_config: ProcessorConfig,
        delta_amps: float = 26.0,
        window_cycles: "Optional[int | Sequence[int]]" = None,
    ):
        if delta_amps <= 0:
            raise ConfigurationError("delta_amps must be positive")
        self.supply_config = supply_config
        self.processor_config = processor_config
        self.delta_amps = delta_amps
        if window_cycles is None:
            period = RLCAnalysis(supply_config).resonant_period_cycles
            window_cycles = period // 2
        if isinstance(window_cycles, int):
            lengths = [window_cycles]
        else:
            lengths = sorted(set(int(w) for w in window_cycles))
        if not lengths or min(lengths) < 2:
            raise ConfigurationError("window lengths must be at least 2")
        self.window_lengths = tuple(lengths)
        self.window_cycles = lengths[-1]  # longest, for compatibility
        self._windows = [deque(maxlen=length) for length in lengths]
        self.damped_cycles = 0
        self.phantom_pad_cycles = 0

    # ------------------------------------------------------------------
    def directives(self, cycle: int) -> ControlDirectives:
        low = 0.0
        high = None
        for window in self._windows:
            if not window:
                continue
            low = max(low, max(window) - self.delta_amps)
            window_high = min(window) + self.delta_amps
            high = window_high if high is None else min(high, window_high)
        if high is None:
            return NO_CONTROL
        self.damped_cycles += 1
        return ControlDirectives(issue_estimate_bounds=(low, high))

    def observe(
        self, cycle: int, current_amps: float, voltage_volts: float, stats=None
    ) -> None:
        if stats is None:
            raise ConfigurationError(
                "pipeline damping needs per-cycle issue estimates; run it"
                " inside a Simulation (stats must be provided)"
            )
        estimate = stats.issued_estimate_amps
        if stats.phantom_amps > 0:
            self.phantom_pad_cycles += 1
        for window in self._windows:
            window.append(estimate)

    # ------------------------------------------------------------------
    @property
    def response_cycle_fractions(self) -> dict:
        # Damping is "always on"; the damped-cycle count mirrors how often
        # bounds were in force rather than a discrete response level.
        return {"first_level_cycles": self.damped_cycles, "second_level_cycles": 0}
