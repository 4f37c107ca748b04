"""Fault-injection campaign: detection under degraded and adversarial input.

``ablation-fault-injection`` sweeps the intensity of every fault model in
:mod:`repro.faults` against the resonance-tuning controller and reports the
degradation curve: how *detector coverage* (the fraction of the base run's
violation cycles the technique removes) and the residual violation cycles
decay as the sensing path gets worse.  This is the paper's sensitivity
study (Sections 2.1.4 and 5.2) extended from "imprecise but healthy" to
"broken": stuck readings, dropped samples, burst noise, drift, quantizer
saturation, reporting jitter, and a square-wave resonant attacker at
``f0`` that the core-current sensors cannot even see.

All fault models are seeded, so the campaign is deterministic end to end;
on a :class:`~repro.sim.runner.Session` with a checkpoint (the
``--checkpoint`` / ``--resume`` CLI flags) a killed campaign resumes at
the cell where it stopped.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.config import TABLE1_PROCESSOR
from repro.core import ResonanceTuningController
from repro.faults import (
    BurstNoiseFault,
    DelayJitterFault,
    DriftFault,
    DroppedSampleFault,
    FaultySensor,
    ResonantAttacker,
    SaturationFault,
    StuckAtFault,
)
from repro.sim.runner import Session, SweepConfig, TechniqueSummary
from repro.experiments.report import render_table

__all__ = ["FaultRow", "FaultInjectionResult", "run", "FAULT_KINDS"]

DEFAULT_BENCHMARKS = ("swim", "bzip", "parser")
DEFAULT_INTENSITIES = (0.2, 0.5)

#: peak-to-peak burst-noise amplitude at intensity 1.0, in amps
_BURST_FULL_AMPS = 48.0
#: drift rate at intensity 1.0, in amps per kilocycle
_DRIFT_FULL_AMPS_PER_KCYCLE = 8.0
#: attacker square-wave amplitude at intensity 1.0, in amps
_ATTACK_FULL_AMPS = 24.0


def _sensor_faults(kind: str, intensity: float, n_cycles: int, seed: int):
    """Map one (kind, intensity) cell onto concrete fault parameters."""
    medium = TABLE1_PROCESSOR.medium_current_amps
    if kind == "stuck":
        return [
            StuckAtFault(
                value_amps=medium,
                start_cycle=n_cycles // 4,
                duration_cycles=max(1, int(intensity * n_cycles)),
                seed=seed,
            )
        ]
    if kind == "drop":
        return [DroppedSampleFault(drop_probability=intensity, seed=seed)]
    if kind == "burst":
        return [
            BurstNoiseFault(
                amplitude_pp_amps=intensity * _BURST_FULL_AMPS,
                burst_probability=0.02,
                burst_length_cycles=64,
                seed=seed,
            )
        ]
    if kind == "drift":
        return [
            DriftFault(
                drift_amps_per_kilocycle=intensity * _DRIFT_FULL_AMPS_PER_KCYCLE,
                max_offset_amps=60.0,
                seed=seed,
            )
        ]
    if kind == "saturate":
        maximum = TABLE1_PROCESSOR.max_current_amps
        return [
            SaturationFault(
                full_scale_amps=maximum - intensity * (maximum - medium),
                seed=seed,
            )
        ]
    if kind == "jitter":
        return [
            DelayJitterFault(
                max_extra_delay_cycles=1 + round(intensity * 10),
                jitter_probability=min(1.0, intensity),
                seed=seed,
            )
        ]
    raise KeyError(kind)


#: The sensor-path fault taxonomy the campaign sweeps (label order is
#: render order); the resonant attacker is handled separately because it
#: wraps the power supply, not the sensor.
FAULT_KINDS: Tuple[str, ...] = (
    "stuck", "drop", "burst", "drift", "saturate", "jitter",
)


@dataclass(frozen=True)
class FaultRow:
    """One campaign cell: a fault kind at one intensity."""

    label: str
    kind: str
    intensity: float
    coverage: float
    summary: TechniqueSummary


@dataclass
class FaultInjectionResult:
    """Degradation curves of the tuning technique under injected faults."""

    title: str
    rows: Tuple[FaultRow, ...]
    n_cycles: int

    def row_for(self, label: str) -> FaultRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    def render(self) -> str:
        table = []
        for row in self.rows:
            summary = row.summary
            table.append([
                row.label,
                f"{row.intensity:.2f}",
                summary.total_violation_cycles,
                row.coverage,
                summary.avg_slowdown,
                summary.avg_first_level_fraction,
                summary.avg_second_level_fraction,
                len(summary.failures),
            ])
        return render_table(
            f"{self.title} ({self.n_cycles} cycles/benchmark)",
            ["fault", "intensity", "violations", "coverage",
             "avg slowdown", "frac 1st", "frac 2nd", "failures"],
            table,
        )


def _coverage(summary: TechniqueSummary) -> float:
    """Mean fraction of the base run's violation cycles the technique removed.

    A benchmark whose base run never violates contributes full coverage
    (there was nothing to miss).
    """
    scores: List[float] = []
    for metrics in summary.per_benchmark:
        base = metrics.base_violation_fraction
        if base <= 0:
            scores.append(1.0)
        else:
            scores.append(max(0.0, 1.0 - metrics.violation_fraction / base))
    return sum(scores) / len(scores) if scores else 0.0


def _tuning_controller(
    supply, processor,
    fault: Optional[Tuple[str, float, int, int]] = None,
    label: Optional[str] = None,
):
    """Builder of the campaign's controllers.

    ``fault`` holds the :func:`_sensor_faults` arguments.  A sweep calls
    it once and runs every cell on a fresh copy of that controller,
    restored from the sweep's spec, so each run starts from the same
    fault state.
    """
    sensor = FaultySensor(_sensor_faults(*fault)) if fault is not None else None
    controller = ResonanceTuningController(supply, processor, sensor=sensor)
    if label is not None:
        # Each variant names what it ran under, so its summary, failure
        # reports and trace spans say which fault a row is.
        controller.name = f"resonance-tuning[{label}]"
    return controller


def _attack(supply, benchmark, amplitude_amps: float):
    """Supply transform mounting the resonant attacker on every run."""
    return ResonantAttacker(supply, amplitude_amps=amplitude_amps, seed=99)


def run(
    n_cycles: int = 20_000,
    benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    session: Optional[Session] = None,
) -> FaultInjectionResult:
    """Sweep every fault kind over ``intensities``; includes a clean row.

    Runs on ``session`` (default: a fresh one).
    """
    config = SweepConfig(n_cycles=n_cycles)
    session = session or Session()
    runner = session.runner(config)
    rows: List[FaultRow] = []

    clean = runner.sweep(_tuning_controller, benchmarks=benchmarks)
    rows.append(
        FaultRow("clean", "clean", 0.0, _coverage(clean), clean)
    )

    for kind_index, kind in enumerate(FAULT_KINDS):
        for intensity in intensities:
            label = f"{kind} {intensity:.2f}"
            factory = functools.partial(
                _tuning_controller,
                fault=(kind, intensity, n_cycles, 7_000 + kind_index),
                label=label,
            )
            summary = runner.sweep(factory, benchmarks=benchmarks)
            rows.append(FaultRow(
                label, kind, intensity, _coverage(summary), summary,
            ))

    # The resonant attacker changes the power supply itself, so base runs
    # must see the same attack: a runner per intensity, whose transform
    # keys its own base runs.
    for intensity in intensities:
        attack = functools.partial(
            _attack, amplitude_amps=intensity * _ATTACK_FULL_AMPS
        )
        attacked = session.runner(config, supply_transform=attack)
        label = f"attack {intensity:.2f}"
        summary = attacked.sweep(
            functools.partial(_tuning_controller, label=label),
            benchmarks=benchmarks,
        )
        rows.append(FaultRow(
            label, "attack", intensity, _coverage(summary), summary,
        ))

    return FaultInjectionResult(
        "Fault injection: detector coverage degradation",
        tuple(rows),
        n_cycles,
    )
