"""Ablation experiments (design-choice evidence beyond the paper's tables).

Each function is a CLI-runnable extension of the registry
(:mod:`repro.experiments.registry`):

* :func:`run_two_tier` -- both response tiers vs each tier alone;
* :func:`run_band_coverage` -- band-wide vs single-frequency detection,
  closed loop and on open-loop square waves;
* :func:`run_sensing` -- sensor quantization and response delay;
* :func:`run_detectors` -- quarter-period vs wavelet (dyadic) detection;
* :func:`run_convolution` -- the convolution technique of ref [8] under
  accurate and mis-scaled current estimates;
* :func:`run_multiwindow_damping` -- band-covering damping windows vs
  tightening delta (Section 5.3.2).

Invoke with ``python -m repro experiment ablation-two-tier`` etc.; the
command runs every experiment it names on one
:class:`~repro.sim.runner.Session`, which each function takes as
``session`` (default: a fresh one), and checks the paper's claims about
them (:mod:`repro.experiments.claims`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from repro.baselines.convolution import ConvolutionController
from repro.baselines.damping import PipelineDampingController
from repro.config import TABLE1_SUPPLY, TABLE1_TUNING
from repro.core import (
    CurrentSensor,
    ResonanceDetector,
    ResonanceTuningController,
    WaveletDetector,
)
from repro.core.kernel import run_detector
from repro.power import waveforms
from repro.power.rlc import RLCAnalysis
from repro.sim.runner import (
    BenchmarkRunner,
    Session,
    SweepConfig,
    TechniqueSummary,
)
from repro.experiments.report import render_table

__all__ = [
    "AblationResult",
    "run_two_tier",
    "run_band_coverage",
    "run_sensing",
    "run_detectors",
    "run_convolution",
    "run_multiwindow_damping",
]

VIOLATORS = ("swim", "bzip", "parser", "lucas")
MIXED = ("swim", "bzip", "parser", "gzip")
#: Violators plus quiet applications, for the baseline extensions.
CONVOLUTION_APPS = ("swim", "bzip", "parser", "fma3d", "gzip")
DAMPING_APPS = ("swim", "bzip", "parser", "lucas", "fma3d", "gzip")
#: Square-wave periods (cycles) of the open-loop band-coverage probe: the
#: band's low edge, its centre and its high edge.
OPEN_LOOP_PERIODS = (86, 100, 116)
OPEN_LOOP_AMPLITUDE_PP = 45.0


@dataclass
class AblationResult:
    """Variant label -> technique summary, with a rendered comparison.

    ``open_loop`` (band coverage only) maps a square-wave period to the
    maximum resonant event count of each variant's detector on it;
    ``adders`` (detector structure only) maps a detector to its adder
    count.
    """

    title: str
    summaries: Tuple[Tuple[str, TechniqueSummary], ...]
    n_cycles: int
    open_loop: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    adders: Dict[str, int] = field(default_factory=dict)

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
        table = render_table(
            f"{self.title} ({self.n_cycles} cycles/benchmark)",
            ["variant", "violations", "avg slowdown", "avg E*D",
             "frac 1st", "frac 2nd"],
            rows,
        )
        if not self.open_loop:
            return table
        labels = [label for label, _ in self.summaries]
        open_loop = render_table(
            f"Open loop: max resonant event count on a"
            f" {OPEN_LOOP_AMPLITUDE_PP:g} A square wave",
            ["period (cycles)", *labels],
            [[period, *counts] for period, counts in self.open_loop.items()],
        )
        return f"{table}\n\n{open_loop}"


def _runner(n_cycles: int, session: Optional[Session]) -> BenchmarkRunner:
    return (session or Session()).runner(SweepConfig(n_cycles=n_cycles))


# Builders of the variants that need their own sensor or detector.  A
# sweep calls its factory once and keys its cells by the controller it
# builds, so a variant that builds the default controller (a 1 A sensor,
# the band-wide quarter-period detector, no response delay) is served the
# cells of every other variant that does.

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
    n_cycles: int = 60_000, benchmarks: Sequence[str] = VIOLATORS,
    session: Optional[Session] = None,
) -> AblationResult:
    """Both tiers vs first-only vs second-only (Section 3.2's design)."""
    runner = _runner(n_cycles, session)
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


def _max_open_loop_count(half_periods, period_cycles: int) -> int:
    """Largest event count a fresh detector reaches on a square wave."""
    detector = ResonanceDetector(
        half_periods,
        TABLE1_TUNING.resonant_current_threshold_amps,
        TABLE1_TUNING.max_repetition_tolerance,
    )
    wave = waveforms.square_wave(
        1500, period_cycles, OPEN_LOOP_AMPLITUDE_PP, mean=70.0
    )
    return max((event.count for event in run_detector(detector, wave)),
               default=0)


def run_band_coverage(
    n_cycles: int = 20_000, benchmarks: Sequence[str] = VIOLATORS,
    session: Optional[Session] = None,
) -> AblationResult:
    """Band-wide vs single-frequency detection (Section 3.1.3)."""
    runner = _runner(n_cycles, session)
    band = RLCAnalysis(TABLE1_SUPPLY).band
    variants = (
        ("band-wide", band.half_periods),
        ("single-frequency", [band.half_periods[len(band.half_periods) // 2]]),
    )
    summaries = tuple(
        (label, runner.sweep(_detector_factory(half_periods),
                             benchmarks=benchmarks))
        for label, half_periods in variants
    )
    open_loop = {
        period: tuple(
            _max_open_loop_count(half_periods, period)
            for _, half_periods in variants
        )
        for period in OPEN_LOOP_PERIODS
    }
    return AblationResult(
        "Ablation: detection band coverage", summaries, n_cycles,
        open_loop=open_loop,
    )


def run_sensing(
    n_cycles: int = 20_000,
    benchmarks: Sequence[str] = MIXED,
    quanta: Sequence[float] = (1.0, 4.0, 8.0),
    delays: Sequence[int] = (0, 5, 12),
    session: Optional[Session] = None,
) -> AblationResult:
    """Sensor coarseness and response delay (Sections 2.1.4 and 5.2)."""
    runner = _runner(n_cycles, session)
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
    n_cycles: int = 20_000, benchmarks: Sequence[str] = MIXED,
    session: Optional[Session] = None,
) -> AblationResult:
    """Quarter-period detection vs the wavelet alternative (ref [11])."""
    runner = _runner(n_cycles, session)
    band = RLCAnalysis(TABLE1_SUPPLY).band
    summaries = []
    adders = {}
    for name, detector_cls in (("quarter-period", ResonanceDetector),
                               ("wavelet dyadic", WaveletDetector)):
        count = detector_cls(
            band.half_periods,
            TABLE1_TUNING.resonant_current_threshold_amps,
            TABLE1_TUNING.max_repetition_tolerance,
        ).adder_count
        adders[name] = count
        summaries.append((f"{name} ({count} adders)", runner.sweep(
            _detector_factory(band.half_periods, detector_cls),
            benchmarks=benchmarks,
        )))
    return AblationResult(
        "Ablation: detector structure", tuple(summaries), n_cycles,
        adders=adders,
    )


def run_convolution(
    n_cycles: int = 20_000, benchmarks: Sequence[str] = CONVOLUTION_APPS,
    session: Optional[Session] = None,
) -> AblationResult:
    """The convolution technique of ref [8] as its current estimates err.

    Sections 1 and 3 grant the technique accurate a-priori estimates and
    free real-time convolution; systematic under-estimation makes its
    internal model under-predict the voltage, over-estimation reacts more.
    """
    runner = _runner(n_cycles, session)
    summaries = tuple(
        (label, runner.sweep(
            functools.partial(ConvolutionController, estimate_gain=gain),
            benchmarks=benchmarks,
        ))
        for label, gain in (("accurate", 1.0),
                            ("under-estimate 0.6x", 0.6),
                            ("over-estimate 1.3x", 1.3))
    )
    return AblationResult(
        "Extension: convolution baseline [8]", summaries, n_cycles
    )


def run_multiwindow_damping(
    n_cycles: int = 20_000, benchmarks: Sequence[str] = DAMPING_APPS,
    session: Optional[Session] = None,
) -> AblationResult:
    """Band-covering damping windows vs tightening delta (Section 5.3.2).

    The paper names two ways to extend damping [14] over the resonance
    band -- a window per band period, or a tighter delta -- and picks the
    second.  The first (every window's bounds intersected) is run here at
    delta = 1x beside the single window at 1x and 0.5x.
    """
    runner = _runner(n_cycles, session)
    threshold = TABLE1_TUNING.resonant_current_threshold_amps
    summaries = tuple(
        (label, runner.sweep(
            functools.partial(
                PipelineDampingController,
                delta_amps=relative_delta * threshold,
                window_cycles=windows,
            ),
            benchmarks=benchmarks,
        ))
        for label, relative_delta, windows in (
            ("single window, delta 1.0x", 1.0, 50),
            ("band windows, delta 1.0x", 1.0, (42, 46, 50, 55, 59)),
            ("single window, delta 0.5x", 0.5, 50),
        )
    )
    return AblationResult(
        "Extension: multi-window damping", summaries, n_cycles
    )
