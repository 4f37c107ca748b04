"""Table 5: pipeline damping (ref [14]) as delta tightens.

Damping is applied at the resonant period (50-cycle window) with the
worst-case allowed variation delta expressed relative to the resonant
current variation threshold: 1x, 0.5x and 0.25x, as in the paper.  The
trend to reproduce: costs grow steeply as delta tightens -- and, beyond
the paper's own table, our violation column shows *why* delta must
tighten: at 1x the band is not covered and violations survive.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.baselines.damping import PipelineDampingController
from repro.config import TuningConfig
from repro.sim.runner import Session, SweepConfig, TechniqueSummary
from repro.experiments.report import render_table

__all__ = ["Table5Result", "run", "PAPER_ROWS"]

#: The paper's Table 5 (delta relative to threshold -> headline numbers).
PAPER_ROWS = {
    1.0: dict(worst=1.35, avg=1.10, ed=1.12),
    0.5: dict(worst=1.60, avg=1.15, ed=1.17),
    0.25: dict(worst=2.04, avg=1.24, ed=1.26),
}


@dataclass
class Table5Result:
    summaries: Tuple[Tuple[float, TechniqueSummary], ...]
    threshold_amps: float
    n_cycles: int

    def summary_for(self, relative_delta: float) -> TechniqueSummary:
        for delta, summary in self.summaries:
            if delta == relative_delta:
                return summary
        raise KeyError(relative_delta)

    def render(self) -> str:
        rows = []
        for relative_delta, summary in self.summaries:
            rows.append([
                relative_delta,
                relative_delta * self.threshold_amps,
                f"{summary.worst_slowdown:.3f} ({summary.worst_benchmark})",
                summary.avg_slowdown,
                summary.avg_energy_delay,
                summary.total_violation_cycles,
            ])
        return render_table(
            f"Table 5: pipeline damping ({self.n_cycles} cycles/benchmark)",
            ["delta (rel)", "delta (A)", "worst slowdown",
             "avg slowdown", "avg E*D", "violations"],
            rows,
        )


def _damping_controller(supply, processor, delta_amps):
    """Module-level builder so sweep factories pickle for worker processes."""
    return PipelineDampingController(supply, processor, delta_amps)


def run(
    relative_deltas: Sequence[float] = (1.0, 0.5, 0.25),
    n_cycles: int = 60_000,
    benchmarks: Optional[Sequence[str]] = None,
    tuning: Optional[TuningConfig] = None,
    sweep_config: Optional[SweepConfig] = None,
    session: Optional[Session] = None,
) -> Table5Result:
    """Run the Table 5 sweep on ``session`` (default: a fresh one)."""
    sweep = sweep_config or SweepConfig(n_cycles=n_cycles)
    runner = (session or Session()).runner(sweep)
    threshold = (tuning or TuningConfig()).resonant_current_threshold_amps
    summaries = []
    for relative_delta in relative_deltas:
        delta_amps = relative_delta * threshold
        factory = functools.partial(_damping_controller, delta_amps=delta_amps)
        summaries.append((relative_delta, runner.sweep(factory, benchmarks)))
    return Table5Result(
        summaries=tuple(summaries),
        threshold_amps=threshold,
        n_cycles=sweep.n_cycles,
    )
