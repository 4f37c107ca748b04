"""Ablation experiments (design-choice evidence beyond the paper's tables).

Each function mirrors one of the ablation benches in ``benchmarks/`` as a
first-class, CLI-runnable experiment:

* :func:`run_two_tier` -- both response tiers vs each tier alone;
* :func:`run_band_coverage` -- band-wide vs single-frequency detection;
* :func:`run_sensing` -- sensor quantization and response delay;
* :func:`run_detectors` -- quarter-period vs wavelet (dyadic) detection.

Invoke with ``python -m repro.experiments ablation-two-tier`` etc., or via
``python -m repro experiment ablation-sensing``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Sequence, Tuple

from repro.config import TABLE1_SUPPLY, TABLE1_TUNING
from repro.core import (
    CurrentSensor,
    ResonanceDetector,
    ResonanceTuningController,
    WaveletDetector,
)
from repro.power.rlc import RLCAnalysis
from repro.sim.runner import BenchmarkRunner, SweepConfig, TechniqueSummary
from repro.experiments.report import render_table

__all__ = [
    "AblationResult",
    "run_two_tier",
    "run_band_coverage",
    "run_sensing",
    "run_detectors",
]

VIOLATORS = ("swim", "bzip", "parser", "lucas")
MIXED = ("swim", "bzip", "parser", "gzip")


@dataclass
class AblationResult:
    """Variant label -> technique summary, with a rendered comparison."""

    title: str
    summaries: Tuple[Tuple[str, TechniqueSummary], ...]
    n_cycles: int

    def summary_for(self, label: str) -> TechniqueSummary:
        for name, summary in self.summaries:
            if name == label:
                return summary
        raise KeyError(label)

    def render(self) -> str:
        rows = []
        for label, summary in self.summaries:
            rows.append([
                label,
                summary.total_violation_cycles,
                summary.avg_slowdown,
                summary.avg_energy_delay,
                summary.avg_first_level_fraction,
                summary.avg_second_level_fraction,
            ])
        return render_table(
            f"{self.title} ({self.n_cycles} cycles/benchmark)",
            ["variant", "violations", "avg slowdown", "avg E*D",
             "frac 1st", "frac 2nd"],
            rows,
        )


def _runner(n_cycles: int) -> BenchmarkRunner:
    return BenchmarkRunner(SweepConfig(n_cycles=n_cycles))


# Module-level builders: each variant's factory is a functools.partial
# over one, so it pickles for pool workers and checkpoint keys, and each
# controller gets its own sensor or detector.

def _detector_controller(
    supply, processor, half_periods, detector_cls=ResonanceDetector
):
    detector = detector_cls(
        half_periods,
        TABLE1_TUNING.resonant_current_threshold_amps,
        TABLE1_TUNING.max_repetition_tolerance,
    )
    return ResonanceTuningController(supply, processor, detector=detector)


def _quantized_controller(supply, processor, quantum_amps):
    return ResonanceTuningController(
        supply, processor, sensor=CurrentSensor(quantum_amps=quantum_amps)
    )


def run_two_tier(
    n_cycles: int = 60_000, benchmarks: Sequence[str] = VIOLATORS
) -> AblationResult:
    """Both tiers vs first-only vs second-only (Section 3.2's design)."""
    runner = _runner(n_cycles)
    variants = (
        ("both", dict(enable_first_level=True, enable_second_level=True)),
        ("first-only", dict(enable_first_level=True, enable_second_level=False)),
        ("second-only", dict(enable_first_level=False, enable_second_level=True)),
    )
    summaries = tuple(
        (label, runner.sweep(
            functools.partial(ResonanceTuningController, **switches),
            benchmarks=benchmarks,
        ))
        for label, switches in variants
    )
    return AblationResult("Ablation: two-tier response", summaries, n_cycles)


def _detector_factory(half_periods, detector_cls=ResonanceDetector):
    return functools.partial(
        _detector_controller,
        half_periods=half_periods,
        detector_cls=detector_cls,
    )


def run_band_coverage(
    n_cycles: int = 20_000, benchmarks: Sequence[str] = VIOLATORS
) -> AblationResult:
    """Band-wide vs single-frequency detection (Section 3.1.3)."""
    runner = _runner(n_cycles)
    band = RLCAnalysis(TABLE1_SUPPLY).band
    summaries = (
        ("band-wide",
         runner.sweep(_detector_factory(band.half_periods), benchmarks=benchmarks)),
        ("single-frequency",
         runner.sweep(
             _detector_factory([band.half_periods[len(band.half_periods) // 2]]),
             benchmarks=benchmarks,
         )),
    )
    return AblationResult("Ablation: detection band coverage", summaries, n_cycles)


def run_sensing(
    n_cycles: int = 20_000,
    benchmarks: Sequence[str] = MIXED,
    quanta: Sequence[float] = (1.0, 4.0, 8.0),
    delays: Sequence[int] = (0, 5),
) -> AblationResult:
    """Sensor coarseness and response delay (Sections 2.1.4 and 5.2)."""
    runner = _runner(n_cycles)
    summaries = []
    for quantum in quanta:
        summaries.append((
            f"quantum {quantum:g} A",
            runner.sweep(
                functools.partial(_quantized_controller, quantum_amps=quantum),
                benchmarks=benchmarks,
            ),
        ))
    for delay in delays:
        tuning = replace(TABLE1_TUNING, response_delay_cycles=delay)
        summaries.append((
            f"delay {delay} cycles",
            runner.sweep(
                functools.partial(
                    ResonanceTuningController, tuning_config=tuning
                ),
                benchmarks=benchmarks,
            ),
        ))
    return AblationResult(
        "Ablation: sensing coarseness and delay", tuple(summaries), n_cycles
    )


def run_detectors(
    n_cycles: int = 20_000, benchmarks: Sequence[str] = MIXED
) -> AblationResult:
    """Quarter-period detection vs the wavelet alternative (ref [11])."""
    runner = _runner(n_cycles)
    band = RLCAnalysis(TABLE1_SUPPLY).band
    summaries = (
        ("quarter-period (9 adders)",
         runner.sweep(_detector_factory(band.half_periods), benchmarks=benchmarks)),
        ("wavelet dyadic (2 adders)",
         runner.sweep(
             _detector_factory(band.half_periods, WaveletDetector),
             benchmarks=benchmarks,
         )),
    )
    return AblationResult("Ablation: detector structure", summaries, n_cycles)
