"""One module per table and figure in the paper's evaluation.

Run from the command line::

    python -m repro experiment table3 --quick
    python -m repro experiment table3 figure5 --checkpoint ck.json
    python -m repro experiment all --out results

or programmatically via :func:`repro.experiments.registry.run_experiment`.
One command runs every experiment it names on one
:class:`~repro.sim.runner.Session`, which each experiment that builds
runners takes as ``session``: a cell two experiments need is computed
once.
"""

from repro.experiments import (  # noqa: F401  (re-exported submodules)
    ablations,
    faults,
    figure1,
    figure3,
    figure4,
    figure5,
    persistence,
    report,
    table1,
    table2,
    table3,
    table4,
    table5,
)

__all__ = [
    "ablations",
    "faults",
    "persistence",
    "figure1",
    "figure3",
    "figure4",
    "figure5",
    "report",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
]
