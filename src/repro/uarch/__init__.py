"""Microarchitectural substrate: traces, out-of-order pipeline, power model.

Public surface:

* :class:`~repro.uarch.trace.WorkloadProfile` / :func:`~repro.uarch.trace.generate_trace`
  -- synthetic SPEC2K-like workloads.
* :data:`~repro.uarch.workloads.SPEC2K` -- the 26 tuned benchmark profiles.
* :class:`~repro.uarch.processor.Processor` -- the steppable processor facade.
* :class:`~repro.uarch.pipeline.ControlDirectives` -- the control levers the
  noise-control techniques pull each cycle.
"""

from repro.uarch.branch import BranchUnit
from repro.uarch.branch_predictor import (
    GSharePredictor,
    SyntheticBranchSpace,
    simulate_mispredicts,
)
from repro.uarch.cache import CacheAccess, CacheHierarchy
from repro.uarch.diagnostics import (
    WorkloadCharacter,
    characterize,
    dominant_period_cycles,
)
from repro.uarch.isa import EXECUTION_LATENCY, FU_FOR_OP, MemLevel, OpClass
from repro.uarch.pipeline import ControlDirectives, CycleStats, NO_CONTROL, Pipeline
from repro.uarch.power_model import EnergyWeights, PowerModel
from repro.uarch.processor import Processor
from repro.uarch.serialization import load_trace, save_trace
from repro.uarch.trace import SyntheticTrace, WorkloadProfile, generate_trace
from repro.uarch.workloads import (
    SPEC2K,
    NON_VIOLATING_NAMES,
    PAPER_IPC,
    VIOLATING_NAMES,
    profile_by_name,
)

__all__ = [
    "BranchUnit",
    "GSharePredictor",
    "SyntheticBranchSpace",
    "simulate_mispredicts",
    "WorkloadCharacter",
    "characterize",
    "dominant_period_cycles",
    "CacheAccess",
    "CacheHierarchy",
    "EXECUTION_LATENCY",
    "FU_FOR_OP",
    "MemLevel",
    "OpClass",
    "ControlDirectives",
    "CycleStats",
    "NO_CONTROL",
    "Pipeline",
    "EnergyWeights",
    "PowerModel",
    "Processor",
    "SyntheticTrace",
    "load_trace",
    "save_trace",
    "WorkloadProfile",
    "generate_trace",
    "SPEC2K",
    "PAPER_IPC",
    "NON_VIOLATING_NAMES",
    "VIOLATING_NAMES",
    "profile_by_name",
]
