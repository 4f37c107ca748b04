"""Simulation harness: the cycle loop, metrics and batch sweeps."""

from repro.sim.backends import SweepJob
from repro.sim.checkpoint import load_checkpoint
from repro.sim.metrics import RelativeMetrics, SimulationResult
from repro.sim.runner import (
    BenchmarkRunner,
    FailureReport,
    ResilienceConfig,
    Session,
    SweepConfig,
    TechniqueSummary,
    summarize,
)
from repro.sim.simulation import Simulation

__all__ = [
    "RelativeMetrics",
    "SimulationResult",
    "BenchmarkRunner",
    "FailureReport",
    "ResilienceConfig",
    "Session",
    "SweepConfig",
    "SweepJob",
    "TechniqueSummary",
    "load_checkpoint",
    "summarize",
    "Simulation",
]
