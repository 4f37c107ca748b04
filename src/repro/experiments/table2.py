"""Table 2: classification of the SPEC2K applications.

Runs every benchmark on the base (uncontrolled) processor and classifies it
as violating or non-violating.  The paper classifies over 500 M committed
instructions; at our run lengths the synthetic rare violators are scaled to
stay observable, and classification uses a small threshold on the violation
fraction (see DESIGN.md / EXPERIMENTS.md) rather than strictly "any
violation", to keep a noise floor between the designed split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.sim.runner import Session, SweepConfig
from repro.uarch.workloads import (
    PAPER_IPC,
    PAPER_VIOLATION_FRACTION,
    SPEC2K,
    VIOLATING_NAMES,
)
from repro.experiments.report import render_table

__all__ = ["Table2Row", "Table2Result", "run", "CLASSIFICATION_THRESHOLD"]

#: Violation-fraction threshold separating violating from non-violating at
#: our run lengths (the designed split leaves a >5x gap on each side).
CLASSIFICATION_THRESHOLD = 1e-4


@dataclass(frozen=True)
class Table2Row:
    benchmark: str
    ipc: float
    paper_ipc: float
    violation_fraction: float
    paper_violation_fraction: Optional[float]
    violating: bool
    paper_violating: bool

    @property
    def classification_matches_paper(self) -> bool:
        return self.violating == self.paper_violating


@dataclass
class Table2Result:
    rows: Tuple[Table2Row, ...]
    n_cycles: int

    @property
    def violating(self) -> List[str]:
        return [row.benchmark for row in self.rows if row.violating]

    @property
    def non_violating(self) -> List[str]:
        return [row.benchmark for row in self.rows if not row.violating]

    @property
    def mismatches(self) -> List[str]:
        return [
            row.benchmark
            for row in self.rows
            if not row.classification_matches_paper
        ]

    def render(self) -> str:
        cells = []
        for row in sorted(self.rows, key=lambda r: (not r.violating, r.benchmark)):
            cells.append([
                row.benchmark,
                row.ipc,
                row.paper_ipc,
                row.violation_fraction,
                row.paper_violation_fraction
                if row.paper_violation_fraction is not None else "-",
                "VIOLATING" if row.violating else "ok",
                "match" if row.classification_matches_paper else "MISMATCH",
            ])
        table = render_table(
            f"Table 2: classification of SPEC2K applications ({self.n_cycles} cycles)",
            ["benchmark", "IPC", "paper IPC", "viol fraction",
             "paper fraction", "class", "vs paper"],
            cells, precision=2,
        )
        footer = (
            f"\nviolating: {len(self.violating)}/12 expected, "
            f"mismatches: {self.mismatches or 'none'}"
        )
        return table + footer


def run(
    n_cycles: int = 120_000,
    benchmarks: Optional[Sequence[str]] = None,
    sweep_config: Optional[SweepConfig] = None,
    session: Optional[Session] = None,
) -> Table2Result:
    """Classify the benchmarks on the base processor, on ``session``
    (default: a fresh one)."""
    config = sweep_config or SweepConfig(n_cycles=n_cycles)
    runner = (session or Session()).runner(config)
    names = list(benchmarks) if benchmarks is not None else sorted(SPEC2K)
    rows = []
    for name in names:
        result = runner.run_base(name)
        rows.append(
            Table2Row(
                benchmark=name,
                ipc=result.ipc,
                paper_ipc=PAPER_IPC[name],
                violation_fraction=result.violation_fraction,
                paper_violation_fraction=PAPER_VIOLATION_FRACTION.get(name),
                violating=result.violation_fraction > CLASSIFICATION_THRESHOLD,
                paper_violating=name in VIOLATING_NAMES,
            )
        )
    return Table2Result(rows=tuple(rows), n_cycles=config.n_cycles)
