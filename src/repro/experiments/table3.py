"""Table 3: resonance tuning across initial response times.

For each initial response time (75-200 cycles in the paper), runs
resonance tuning over the benchmark set and reports the paper's columns:
fraction of cycles in first- and second-level response, worst relative
slowdown (and which application), applications above 15 % slowdown,
average relative slowdown and average relative energy-delay -- plus the
violation count, which must be zero for the technique's guarantee.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from repro.config import TuningConfig
from repro.core.tuning import ResonanceTuningController
from repro.sim.runner import Session, SweepConfig, TechniqueSummary
from repro.experiments.report import render_table

__all__ = ["Table3Result", "run", "PAPER_ROWS"]

#: The paper's Table 3 (initial response time -> headline numbers).
PAPER_ROWS = {
    75: dict(first=0.10, second=0.0040, worst=1.19, avg=1.043, ed=1.052),
    100: dict(first=0.12, second=0.0038, worst=1.20, avg=1.048, ed=1.057),
    125: dict(first=0.15, second=0.0032, worst=1.19, avg=1.054, ed=1.076),
    150: dict(first=0.17, second=0.0031, worst=1.35, avg=1.068, ed=1.079),
    200: dict(first=0.20, second=0.0027, worst=1.27, avg=1.075, ed=1.088),
}


@dataclass
class Table3Result:
    summaries: Tuple[Tuple[int, TechniqueSummary], ...]
    n_cycles: int

    def summary_for(self, initial_response_time: int) -> TechniqueSummary:
        for time_value, summary in self.summaries:
            if time_value == initial_response_time:
                return summary
        raise KeyError(initial_response_time)

    def render(self) -> str:
        rows = []
        for time_value, summary in self.summaries:
            rows.append([
                time_value,
                summary.avg_first_level_fraction,
                summary.avg_second_level_fraction,
                f"{summary.worst_slowdown:.3f} ({summary.worst_benchmark})",
                summary.apps_over_15_percent,
                summary.avg_slowdown,
                summary.avg_energy_delay,
                summary.total_violation_cycles,
            ])
        return render_table(
            f"Table 3: resonance tuning ({self.n_cycles} cycles/benchmark)",
            ["init time", "frac 1st", "frac 2nd", "worst slowdown",
             ">15%", "avg slowdown", "avg E*D", "violations"],
            rows,
        )


def run(
    initial_response_times: Sequence[int] = (75, 100, 125, 150, 200),
    n_cycles: int = 60_000,
    benchmarks: Optional[Sequence[str]] = None,
    tuning: Optional[TuningConfig] = None,
    sweep_config: Optional[SweepConfig] = None,
    session: Optional[Session] = None,
) -> Table3Result:
    """Run the Table 3 sweep on ``session`` (default: a fresh one)."""
    config = sweep_config or SweepConfig(n_cycles=n_cycles)
    runner = (session or Session()).runner(config)
    base_tuning = tuning or TuningConfig()
    summaries = []
    for time_value in initial_response_times:
        tuned = replace(base_tuning, initial_response_time=time_value)
        factory = functools.partial(
            ResonanceTuningController, tuning_config=tuned
        )
        summaries.append((time_value, runner.sweep(factory, benchmarks)))
    return Table3Result(summaries=tuple(summaries), n_cycles=config.n_cycles)
