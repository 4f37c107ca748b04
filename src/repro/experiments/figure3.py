"""Figure 3: stimulation of the power supply at the resonant frequency.

A 34 A peak-to-peak square wave at the resonant period runs from cycle 100
to cycle 500.  The paper's observations, all checked here:

* the noise margin is violated when the resonant event count reaches the
  maximum repetition tolerance (4);
* after the stimulus stops, ringing dissipates at about 66 % per resonant
  period (Q = 2.83);
* the same wave below the resonant current variation threshold (20 A)
  never violates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.config import PowerSupplyConfig, TABLE1_SUPPLY, TuningConfig
from repro.core.detector import ResonanceDetector
from repro.core.sensor import CurrentSensor
from repro.power.rlc import RLCAnalysis
from repro.power.supply import PowerSupply
from repro.power.waveforms import square_wave
from repro.experiments.report import ascii_series, render_table

__all__ = ["Figure3Result", "run"]

#: Peak-to-peak amplitude (A) of the same wave below the resonant current
#: variation threshold, which must not violate.
BELOW_THRESHOLD_PP = 20.0


@dataclass
class Figure3Result:
    currents: np.ndarray
    voltages: np.ndarray
    event_counts: np.ndarray          # detector count per cycle
    first_violation_cycle: Optional[int]
    count_at_violation: Optional[int]
    count_milestones: List[Tuple[int, int]]   # (count, first cycle)
    measured_dissipation_per_period: float
    expected_dissipation_per_period: float
    #: first violating cycle of the same wave below the threshold
    below_threshold_violation_cycle: Optional[int]

    def to_svg_charts(self) -> dict:
        """SVG renderings keyed by chart name."""
        from repro.experiments.svg import LineChart

        cycles = list(range(len(self.voltages)))
        voltage = LineChart(
            title="Figure 3: supply voltage under resonant stimulation",
            x_label="cycle", y_label="deviation (mV)",
        )
        voltage.add_series("voltage", cycles, [v * 1e3 for v in self.voltages])
        voltage.add_guide("+margin", 50.0)
        voltage.add_guide("-margin", -50.0)
        current = LineChart(
            title="Figure 3: stimulus current",
            x_label="cycle", y_label="current (A)",
        )
        current.add_series("current", cycles, list(self.currents))
        count = LineChart(
            title="Figure 3: resonant event count",
            x_label="cycle", y_label="count",
        )
        count.add_series(
            "event count", cycles, [float(c) for c in self.event_counts]
        )
        return {
            "voltage": voltage.render(),
            "current": current.render(),
            "count": count.render(),
        }

    def render(self) -> str:
        rows = [["count %d first reached" % count, cycle]
                for count, cycle in self.count_milestones]
        rows.append(["first violation cycle", self.first_violation_cycle])
        rows.append(["event count at violation", self.count_at_violation])
        rows.append(
            ["measured dissipation/period", self.measured_dissipation_per_period]
        )
        rows.append(
            ["expected dissipation/period", self.expected_dissipation_per_period]
        )
        table = render_table(
            "Figure 3: stimulation at the resonant frequency",
            ["observation", "value"], rows,
        )
        volt = ascii_series(np.abs(self.voltages) * 1e3,
                            label="|voltage deviation| (mV)")
        curr = ascii_series(self.currents, label="stimulus current (A)")
        return f"{table}\n\n{volt}\n\n{curr}"


def run(
    supply_config: PowerSupplyConfig = TABLE1_SUPPLY,
    amplitude_pp: float = 34.0,
    mean_current: float = 70.0,
    start: int = 100,
    end: int = 500,
    n_cycles: int = 900,
    tuning: Optional[TuningConfig] = None,
) -> Figure3Result:
    """Reproduce the Figure 3 stimulation experiment."""
    tuning = tuning or TuningConfig()
    analysis = RLCAnalysis(supply_config)
    period = analysis.resonant_period_cycles

    def stimulus(amplitude):
        return square_wave(
            n_cycles, period, amplitude, mean=mean_current, start=start, end=end
        )

    wave = stimulus(amplitude_pp)
    supply = PowerSupply(supply_config, initial_current=mean_current, record=True)
    detector = ResonanceDetector(
        analysis.band.half_periods,
        tuning.resonant_current_threshold_amps,
        tuning.max_repetition_tolerance,
    )
    sensor = CurrentSensor()

    counts = np.zeros(n_cycles, dtype=int)
    for cycle, current in enumerate(wave):
        supply.step(current)
        detector.observe(cycle, sensor.read(current))
        counts[cycle] = detector.current_count(cycle)

    voltages = np.asarray(supply.trace.voltages)
    violation = supply.first_violation_cycle
    count_at_violation = int(counts[violation]) if violation is not None else None
    milestones = []
    for count in range(1, int(counts.max()) + 1):
        hits = np.nonzero(counts >= count)[0]
        if len(hits):
            milestones.append((count, int(hits[0])))

    measured = _dissipation_after_stimulus(voltages, end, period)
    below = PowerSupply(supply_config, initial_current=mean_current)
    for current in stimulus(BELOW_THRESHOLD_PP):
        below.step(current)
    return Figure3Result(
        currents=wave,
        voltages=voltages,
        event_counts=counts,
        first_violation_cycle=violation,
        count_at_violation=count_at_violation,
        count_milestones=milestones,
        measured_dissipation_per_period=measured,
        expected_dissipation_per_period=analysis.dissipation_per_period,
        below_threshold_violation_cycle=below.first_violation_cycle,
    )


def _dissipation_after_stimulus(
    voltages: np.ndarray, stimulus_end: int, period: int
) -> float:
    """Peak-amplitude decay per resonant period after the stimulus stops."""
    first = np.max(np.abs(voltages[stimulus_end : stimulus_end + period]))
    second = np.max(
        np.abs(voltages[stimulus_end + period : stimulus_end + 2 * period])
    )
    if first <= 0:
        return 0.0
    return 1.0 - second / first
