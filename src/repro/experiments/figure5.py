"""Figure 5: comparison of the techniques' relative energy-delay.

Six design points, two per technique, as in the paper:

* resonance tuning with initial response times 75 and 100 cycles (A, B);
* the [10] voltage-threshold technique at 20/10/5 and 20/15/3 mV/mV/cycles
  (C, D);
* pipeline damping at relative delta 0.5 and 0.25 (E, F).

The headline claim to reproduce: resonance tuning outperforms both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.sim.runner import Session, SweepConfig
from repro.experiments import table3
from repro.experiments import table4
from repro.experiments import table5
from repro.experiments.report import render_table

__all__ = ["Figure5Result", "run", "DESIGN_POINTS"]

DESIGN_POINTS = (
    ("A", "resonance tuning, 75-cycle initial response"),
    ("B", "resonance tuning, 100-cycle initial response"),
    ("C", "[10], threshold/noise/delay = 20/10/5"),
    ("D", "[10], threshold/noise/delay = 20/15/3"),
    ("E", "damping, relative delta 0.5"),
    ("F", "damping, relative delta 0.25"),
)


@dataclass
class Figure5Result:
    #: (label, description, avg energy-delay, violation cycles remaining)
    energy_delays: Tuple[Tuple[str, str, float, int], ...]
    n_cycles: int

    def value(self, label: str) -> float:
        for point, _, energy_delay, _ in self.energy_delays:
            if point == label:
                return energy_delay
        raise KeyError(label)

    @property
    def tuning_wins(self) -> bool:
        """Does the best tuning point beat every other design point?"""
        best_tuning = min(self.value("A"), self.value("B"))
        others = min(self.value(label) for label in ("C", "D", "E", "F"))
        return best_tuning < others

    @property
    def tuning_wins_realistic(self) -> bool:
        """Does tuning beat the points the paper argues are the fair ones?

        C and D are [10] with realistic sensors; F is damping tightened
        enough to cover the resonance band (Section 5.3.2 argues delta may
        need substantial tightening to guarantee the margins, so E's
        guarantee is not established).
        """
        best_tuning = min(self.value("A"), self.value("B"))
        others = min(self.value(label) for label in ("C", "D", "F"))
        return best_tuning < others

    def to_svg_charts(self) -> dict:
        """SVG renderings keyed by chart name."""
        from repro.experiments.svg import BarChart

        chart = BarChart(
            title="Figure 5: relative energy-delay by design point",
            x_label="average relative energy-delay",
            baseline=1.0,
        )
        for label, description, energy_delay, _ in self.energy_delays:
            chart.add_bar(f"{label}: {description}", energy_delay)
        return {"comparison": chart.render()}

    def render(self) -> str:
        rows = []
        for label, description, energy_delay, violations in self.energy_delays:
            bar = "#" * max(1, round((energy_delay - 1.0) * 100))
            rows.append([label, description, energy_delay, violations, bar])
        table = render_table(
            f"Figure 5: comparison of techniques "
            f"({self.n_cycles} cycles/benchmark)",
            ["pt", "design point", "avg E*D", "viol", "(E*D - 1) x100"],
            rows,
        )
        verdict = (
            "\ntuning beats all design points: "
            + ("YES" if self.tuning_wins else "NO")
            + "; beats realistic alternatives (C, D, F): "
            + ("YES" if self.tuning_wins_realistic else "NO")
        )
        return table + verdict


def run(
    n_cycles: int = 60_000,
    benchmarks: Optional[Sequence[str]] = None,
    sweep_config: Optional[SweepConfig] = None,
    session: Optional[Session] = None,
) -> Figure5Result:
    """Compose the Figure 5 comparison from the Table 3/4/5 machinery.

    Every design point is a Table 3, 4 or 5 row at the same
    :class:`SweepConfig`, so on a ``session`` that already ran those
    tables the figure is served their cells instead of recomputing them.
    """
    sweep = sweep_config or SweepConfig(n_cycles=n_cycles)
    session = session or Session()
    tuning = table3.run(
        initial_response_times=(75, 100), benchmarks=benchmarks,
        sweep_config=sweep, session=session,
    )
    voltage = table4.run(
        configs=(table4.VTConfig(20, 10, 5), table4.VTConfig(20, 15, 3)),
        benchmarks=benchmarks, sweep_config=sweep, session=session,
    )
    damping = table5.run(
        relative_deltas=(0.5, 0.25), benchmarks=benchmarks, sweep_config=sweep,
        session=session,
    )
    descriptions = dict(DESIGN_POINTS)

    def point(label, summary):
        return (
            label,
            descriptions[label],
            summary.avg_energy_delay,
            summary.total_violation_cycles,
        )

    energy_delays = (
        point("A", tuning.summary_for(75)),
        point("B", tuning.summary_for(100)),
        point("C", voltage.summary_for("20/10/5")),
        point("D", voltage.summary_for("20/15/3")),
        point("E", damping.summary_for(0.5)),
        point("F", damping.summary_for(0.25)),
    )
    return Figure5Result(energy_delays=energy_delays, n_cycles=sweep.n_cycles)
