"""Table 4: the voltage-threshold technique of ref [10].

Sweeps the paper's five (target threshold, sensor noise, delay)
configurations and reports fraction of cycles in response, worst and
average relative slowdown and average relative energy-delay.  The paper's
trend to reproduce: near-ideal sensors are cheap, but realistic noise and
delay force lower actual thresholds and degrade the technique sharply.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.baselines.voltage_threshold import VoltageThresholdController
from repro.sim.runner import Session, SweepConfig, TechniqueSummary
from repro.experiments.report import render_table

__all__ = ["VTConfig", "Table4Result", "run", "PAPER_CONFIGS", "PAPER_ROWS"]


@dataclass(frozen=True)
class VTConfig:
    """One Table 4 row: thresholds in millivolts, delay in cycles."""

    target_mv: float
    noise_mv: float
    delay_cycles: int

    @property
    def actual_mv(self) -> float:
        return self.target_mv - 0.5 * self.noise_mv

    @property
    def label(self) -> str:
        return f"{self.target_mv:.0f}/{self.noise_mv:.0f}/{self.delay_cycles}"


PAPER_CONFIGS = (
    VTConfig(30, 0, 0),
    VTConfig(20, 0, 0),
    VTConfig(30, 15, 0),
    VTConfig(20, 10, 5),
    VTConfig(20, 15, 3),
)

#: The paper's Table 4 headline numbers per configuration label.
PAPER_ROWS = {
    "30/0/0": dict(response=0.002, worst=1.038, avg=1.005, ed=1.030),
    "20/0/0": dict(response=0.04, worst=1.180, avg=1.039, ed=1.047),
    "30/15/0": dict(response=0.05, worst=1.11, avg=1.031, ed=1.074),
    "20/10/5": dict(response=0.15, worst=1.32, avg=1.108, ed=1.191),
    "20/15/3": dict(response=0.27, worst=1.68, avg=1.236, ed=1.460),
}


@dataclass
class Table4Result:
    summaries: Tuple[Tuple[VTConfig, TechniqueSummary], ...]
    n_cycles: int

    def summary_for(self, label: str) -> TechniqueSummary:
        for config, summary in self.summaries:
            if config.label == label:
                return summary
        raise KeyError(label)

    def render(self) -> str:
        rows = []
        for config, summary in self.summaries:
            rows.append([
                config.label,
                config.actual_mv,
                summary.avg_second_level_fraction,
                f"{summary.worst_slowdown:.3f} ({summary.worst_benchmark})",
                summary.avg_slowdown,
                summary.avg_energy_delay,
                summary.total_violation_cycles,
            ])
        return render_table(
            f"Table 4: technique of [10] ({self.n_cycles} cycles/benchmark)",
            ["thr/noise/delay", "actual (mV)", "frac response",
             "worst slowdown", "avg slowdown", "avg E*D", "violations"],
            rows,
        )


def _vt_controller(supply, processor, config):
    """Module-level builder so sweep factories pickle for worker processes."""
    return VoltageThresholdController(
        supply,
        processor,
        target_threshold_volts=config.target_mv * 1e-3,
        sensor_noise_pp_volts=config.noise_mv * 1e-3,
        delay_cycles=config.delay_cycles,
    )


def run(
    configs: Sequence[VTConfig] = PAPER_CONFIGS,
    n_cycles: int = 60_000,
    benchmarks: Optional[Sequence[str]] = None,
    sweep_config: Optional[SweepConfig] = None,
    session: Optional[Session] = None,
) -> Table4Result:
    """Run the Table 4 sweep on ``session`` (default: a fresh one)."""
    sweep = sweep_config or SweepConfig(n_cycles=n_cycles)
    runner = (session or Session()).runner(sweep)
    summaries = []
    for config in configs:
        factory = functools.partial(_vt_controller, config=config)
        summaries.append((config, runner.sweep(factory, benchmarks)))
    return Table4Result(summaries=tuple(summaries), n_cycles=sweep.n_cycles)
