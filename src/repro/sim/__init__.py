"""Simulation harness: the cycle loop, metrics and batch sweeps."""

from repro.sim.backends import (
    ProcessPoolBackend,
    SequentialBackend,
    SweepBackend,
    SweepJob,
    select_backend,
)
from repro.sim.metrics import RelativeMetrics, SimulationResult
from repro.sim.runner import (
    BenchmarkRunner,
    FailureReport,
    ResilienceConfig,
    SeedStatistics,
    SweepConfig,
    TechniqueSummary,
    load_checkpoint,
    summarize,
)
from repro.sim.simulation import Simulation

__all__ = [
    "RelativeMetrics",
    "SimulationResult",
    "BenchmarkRunner",
    "FailureReport",
    "ProcessPoolBackend",
    "ResilienceConfig",
    "SeedStatistics",
    "SequentialBackend",
    "SweepBackend",
    "SweepConfig",
    "SweepJob",
    "TechniqueSummary",
    "load_checkpoint",
    "select_backend",
    "summarize",
    "Simulation",
]
