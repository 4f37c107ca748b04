"""Extensions beyond the paper's evaluation that run no sweep.

* :func:`run_lowfreq` -- the low-frequency resonance of Section 2.2 on the
  two-stage supply: its impedance peak, whether sustained excitation there
  violates, and whether the detector counts through it;
* :func:`run_design_space` -- the paper's design-time flow (analyse the
  RLC loop, calibrate, configure the detector) applied to supplies with
  less and more decoupling capacitance, each stressed by a workload tuned
  into its own band.

Invoke with ``python -m repro experiment lowfreq-resonance`` or
``design-space``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from repro.config import TABLE1_PROCESSOR, TABLE1_SUPPLY, TuningConfig
from repro.core.detector import ResonanceDetector
from repro.core.kernel import run_detector
from repro.core.sensor import CurrentSensor
from repro.core.tuning import ResonanceTuningController
from repro.power import waveforms
from repro.power.calibration import calibrate
from repro.power.lowfreq import (
    TwoStageSupply,
    TwoStageSupplyConfig,
    two_stage_impedance,
)
from repro.power.rlc import RLCAnalysis
from repro.power.supply import PowerSupply
from repro.sim.simulation import Simulation
from repro.uarch.processor import Processor
from repro.uarch.workloads import WorkloadProfile
from repro.experiments.report import render_table

__all__ = [
    "LowFreqResult",
    "DesignPoint",
    "DesignSpaceResult",
    "run_lowfreq",
    "run_design_space",
]


@dataclass
class LowFreqResult:
    """Section 2.2's low-frequency resonance on the two-stage supply."""

    period_cycles: int
    low_peak_mohm: float
    mid_peak_mohm: float
    #: violating cycles under 12 periods of a square wave at the low
    #: resonance, per peak-to-peak amplitude (A)
    violations: Tuple[Tuple[float, int], ...]
    #: the detector's largest event count on 6 periods at 60 A
    max_event_count: int

    def violations_at(self, amplitude_pp: float) -> int:
        return dict(self.violations)[amplitude_pp]

    def render(self) -> str:
        rows = [
            ["low-frequency period (cycles)", self.period_cycles],
            ["reaction slack per quarter period (cycles)",
             self.period_cycles // 4],
            ["low-frequency impedance peak (mOhm)", self.low_peak_mohm],
            ["medium-frequency impedance peak (mOhm)", self.mid_peak_mohm],
        ]
        rows += [
            [f"violating cycles, {amplitude:g} A square wave", count]
            for amplitude, count in self.violations
        ]
        rows.append(["max resonant event count, 60 A", self.max_event_count])
        return render_table(
            "Extension: low-frequency resonance (Section 2.2)",
            ["observation", "value"], rows,
        )


def run_lowfreq() -> LowFreqResult:
    """Excite and detect the two-stage supply's low-frequency resonance.

    The detector watches the low band's half-periods (3,777-5,109 cycles)
    on the vectorized kernel: the scalar detector walks back each event
    run per event, which is quadratic in run length at these periods.
    """
    config = TwoStageSupplyConfig()
    period = config.low_frequency_period_cycles
    frequencies = np.logspace(5.0, 8.5, 1200)
    impedance = two_stage_impedance(config, frequencies)
    split = int(np.searchsorted(frequencies, 2e7))

    def violating_cycles(amplitude_pp: float) -> int:
        supply = TwoStageSupply(config, initial_current=70.0)
        supply.run(
            waveforms.square_wave(12 * period, period, amplitude_pp, mean=70.0)
        )
        return supply.violation_cycles

    detector = ResonanceDetector(
        half_periods=config.low_frequency_band_half_periods(),
        threshold_amps=26.0,
        max_repetition_tolerance=4,
    )
    sensor = CurrentSensor()
    wave = waveforms.square_wave(6 * period, period, 60.0, mean=70.0)
    events = run_detector(detector, [sensor.read(current) for current in wave])
    return LowFreqResult(
        period_cycles=period,
        low_peak_mohm=float(np.max(impedance[:split])) * 1e3,
        mid_peak_mohm=float(np.max(impedance[split:])) * 1e3,
        violations=tuple(
            (amplitude, violating_cycles(amplitude))
            for amplitude in (60.0, 25.0)
        ),
        max_event_count=max((event.count for event in events), default=0),
    )


@dataclass(frozen=True)
class DesignPoint:
    """One supply design, calibrated and stressed in its own band."""

    capacitance_scale: float
    period_cycles: int
    threshold_amps: float
    tolerance: int
    base_violation_fraction: float
    tuned_violation_fraction: float
    slowdown: float


#: A design whose base violation fraction exceeds this is "stressed".
STRESSED_FRACTION = 1e-4


@dataclass
class DesignSpaceResult:
    points: Tuple[DesignPoint, ...]
    n_cycles: int

    @property
    def stressed(self) -> Tuple[DesignPoint, ...]:
        return tuple(
            p for p in self.points
            if p.base_violation_fraction > STRESSED_FRACTION
        )

    @property
    def robust(self) -> Tuple[DesignPoint, ...]:
        return tuple(
            p for p in self.points
            if p.base_violation_fraction <= STRESSED_FRACTION
        )

    def render(self) -> str:
        rows = [
            [f"x{p.capacitance_scale:g}", p.period_cycles, p.threshold_amps,
             p.tolerance, p.base_violation_fraction,
             p.tuned_violation_fraction, p.slowdown]
            for p in self.points
        ]
        return render_table(
            f"Extension: design-space sweep ({self.n_cycles} cycles/design)",
            ["C", "period", "threshold (A)", "tolerance", "base viol",
             "tuned viol", "slowdown"],
            rows,
        )


def _designed_workload(period_cycles: int, threshold_amps: float,
                       episode_periods: int) -> WorkloadProfile:
    """A workload oscillating in a design's band, just above its threshold."""
    low = max(20, period_cycles // 2)
    high_instrs = int(7 * period_cycles / 2)
    # Scale the hot phase's intensity with the design's threshold; designs
    # that tolerate more than ~32 A need the unthrottled hot phase.
    if threshold_amps > 32.0:
        boost_dep = 0
    else:
        boost_dep = max(8, round(18 * threshold_amps / 26.0))
    return WorkloadProfile(
        name=f"designed-{period_cycles}",
        frac_fp=0.4, frac_load=0.28, frac_store=0.10, frac_branch=0.08,
        mean_dep_distance=6.0, l1_miss_rate=0.02,
        osc_kind="serial", osc_period_instrs=low + high_instrs,
        osc_low_instrs=low, osc_jitter_instrs=3,
        osc_boost_ilp=True, osc_boost_dep=boost_dep,
        osc_episode_periods=episode_periods, osc_gap_instrs=8000,
        seed=5,
    )


def _design_point(capacitance_scale: float, n_cycles: int) -> DesignPoint:
    supply_config = replace(
        TABLE1_SUPPLY,
        capacitance_farads=(
            TABLE1_SUPPLY.capacitance_farads * capacitance_scale
        ),
    )
    analysis = RLCAnalysis(supply_config)
    calibration = calibrate(supply_config)
    tuning = TuningConfig(
        resonant_current_threshold_amps=max(
            5.0, calibration.threshold_amps - 1.0
        ),
        max_repetition_tolerance=max(
            3, min(6, calibration.max_repetition_tolerance)
        ),
    )
    # Episodes outlast the design's own repetition tolerance, or the base
    # processor never violates and there is nothing to prevent.
    profile = _designed_workload(
        analysis.resonant_period_cycles,
        calibration.threshold_amps,
        episode_periods=calibration.max_repetition_tolerance + 3,
    )

    def run(tuned: bool):
        processor = Processor.from_profile(
            profile, n_instructions=int(n_cycles * 5),
            config=TABLE1_PROCESSOR, supply_config=supply_config,
        )
        controller = (
            ResonanceTuningController(supply_config, TABLE1_PROCESSOR, tuning)
            if tuned else None
        )
        return Simulation(
            processor, PowerSupply(supply_config, initial_current=35.0),
            controller, benchmark=profile.name, warmup_cycles=2_000,
        ).run(n_cycles)

    base, tuned = run(False), run(True)
    return DesignPoint(
        capacitance_scale=capacitance_scale,
        period_cycles=analysis.resonant_period_cycles,
        threshold_amps=calibration.threshold_amps,
        tolerance=calibration.max_repetition_tolerance,
        base_violation_fraction=base.violation_fraction,
        tuned_violation_fraction=tuned.violation_fraction,
        slowdown=base.ipc / tuned.ipc,
    )


def run_design_space() -> DesignSpaceResult:
    """Calibrate and stress 0.75x, 1x and 1.5x the Table 1 capacitance
    (resonant periods 87/100/123 cycles) for 40,000 cycles each."""
    n_cycles = 40_000
    return DesignSpaceResult(
        points=tuple(
            _design_point(scale, n_cycles) for scale in (0.75, 1.0, 1.5)
        ),
        n_cycles=n_cycles,
    )
