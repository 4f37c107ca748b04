"""Synthetic instruction traces and their statistical profiles.

The paper drives Wattch/SimpleScalar with SPEC2K Alpha binaries.  We have no
binaries or toolchain, so (per the DESIGN.md substitution table) each
benchmark is replaced by a *statistical profile* from which a deterministic,
seeded synthetic trace is generated.  A profile controls:

* the instruction mix (loads, stores, branches, integer/FP compute),
* instruction-level parallelism via producer-consumer distances,
* cache-miss and branch-misprediction behaviour, and
* *burst structure*: periodic serializing cache misses that alternate the
  pipeline between high-activity and stalled phases.  The burst period (in
  cycles, emergent from the pipeline) determines whether a benchmark's
  current variations fall inside the resonance band -- this is what makes
  the "violating" benchmarks of Table 2 violate.

Traces are numpy-backed and wrap around when the simulation outruns them,
modelling steady-state behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, TraceError
from repro.uarch.isa import MemLevel, OpClass

__all__ = ["WorkloadProfile", "SyntheticTrace", "generate_trace"]

#: Producer distances are capped so the pipeline's dependency window (a
#: sliding buffer of recent completion times) can stay small.
MAX_DEP_DISTANCE = 256


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical description of one benchmark's dynamic behaviour."""

    name: str
    description: str = ""
    # --- instruction mix (fractions of all instructions) ---
    frac_load: float = 0.25
    frac_store: float = 0.10
    frac_branch: float = 0.12
    frac_fp: float = 0.0        # fraction of *compute* ops that are FP
    frac_mul: float = 0.10      # fraction of compute ops that are multiplies
    # --- dependency structure ---
    mean_dep_distance: float = 6.0
    dep2_probability: float = 0.35
    # --- memory behaviour ---
    l1_miss_rate: float = 0.02          # per memory operation
    l2_miss_rate: float = 0.10          # per L1 miss (escalates to memory)
    icache_miss_rate: float = 0.0       # per instruction (frontend stalls)
    branch_mispredict_rate: float = 0.03
    #: "random" draws mispredictions independently at the configured rate;
    #: "gshare" synthesizes per-static-branch outcome streams and runs a
    #: real gshare predictor over them, giving bursty (loop-exit-clustered)
    #: mispredictions whose rate is emergent
    branch_model: str = "random"
    # --- oscillation structure (what creates current variation) ---
    #: instructions per full high/low activity oscillation; 0 disables
    osc_period_instrs: int = 0
    #: "serial" = low-ILP dependency chain, "l2" = L2-missing load,
    #: "mem" = memory-missing load (ROB-fill stall), "none" = no oscillation
    osc_kind: str = "none"
    #: length of the low-activity segment in instructions
    osc_low_instrs: int = 24
    #: +/- jitter on each oscillation boundary; large jitter keeps the
    #: variation from repeating coherently at one frequency
    osc_jitter_instrs: int = 0
    #: rewrite the high segment into width-limited independent work, so the
    #: high phase saturates the machine regardless of the background ILP
    osc_boost_ilp: bool = False
    #: dependency wavefront width of the boosted segment: every boosted
    #: instruction depends on the one this many positions back, capping the
    #: hot phase at roughly this many instructions per cycle (over the mean
    #: execution latency); 0 means fully independent (width-limited)
    osc_boost_dep: int = 0
    #: oscillation periods per episode; 0 means the oscillation never stops
    osc_episode_periods: int = 0
    #: quiet instructions between episodes (only with episodic oscillation)
    osc_gap_instrs: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        fractions = (
            self.frac_load,
            self.frac_store,
            self.frac_branch,
            self.frac_fp,
            self.frac_mul,
        )
        if any(not 0.0 <= f <= 1.0 for f in fractions):
            raise ConfigurationError(f"{self.name}: mix fractions must be in [0, 1]")
        if self.frac_load + self.frac_store + self.frac_branch > 0.9:
            raise ConfigurationError(
                f"{self.name}: loads+stores+branches leave no room for compute"
            )
        rates = (
            self.l1_miss_rate,
            self.l2_miss_rate,
            self.branch_mispredict_rate,
            self.icache_miss_rate,
        )
        if any(not 0.0 <= r <= 1.0 for r in rates):
            raise ConfigurationError(f"{self.name}: rates must be in [0, 1]")
        if self.mean_dep_distance < 1.0:
            raise ConfigurationError(f"{self.name}: mean_dep_distance must be >= 1")
        if self.osc_kind not in ("none", "serial", "l2", "mem"):
            raise ConfigurationError(f"{self.name}: unknown osc_kind {self.osc_kind!r}")
        if self.branch_model not in ("random", "gshare"):
            raise ConfigurationError(
                f"{self.name}: unknown branch_model {self.branch_model!r}"
            )
        if self.osc_period_instrs < 0 or self.osc_low_instrs < 0:
            raise ConfigurationError(f"{self.name}: oscillation fields must be >= 0")
        if self.osc_period_instrs and self.osc_period_instrs <= self.osc_low_instrs:
            raise ConfigurationError(
                f"{self.name}: oscillation period must exceed the low segment"
            )
        if self.osc_episode_periods < 0 or self.osc_gap_instrs < 0:
            raise ConfigurationError(f"{self.name}: episode fields must be >= 0")
        if self.osc_episode_periods and not self.osc_gap_instrs:
            raise ConfigurationError(
                f"{self.name}: episodic oscillation needs a non-zero gap"
            )

    def with_seed(self, seed: int) -> "WorkloadProfile":
        """Return a copy that generates a different random trace."""
        return replace(self, seed=seed)


@dataclass
class SyntheticTrace:
    """A generated instruction stream (numpy column arrays).

    ``dep1``/``dep2`` are distances back to producer instructions (0 means no
    dependency); ``mem_level`` is -1 for non-memory operations; ``mispredict``
    marks branches resolved as mispredicted.
    """

    profile: WorkloadProfile
    op_class: np.ndarray
    dep1: np.ndarray
    dep2: np.ndarray
    mem_level: np.ndarray
    mispredict: np.ndarray
    icache_miss: Optional[np.ndarray] = None
    _mix_counts: Optional[dict] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        n = len(self.op_class)
        if self.icache_miss is None:
            self.icache_miss = np.zeros(n, dtype=bool)
        for name in ("dep1", "dep2", "mem_level", "mispredict", "icache_miss"):
            if len(getattr(self, name)) != n:
                raise TraceError(f"trace column {name} has mismatched length")

    def __len__(self) -> int:
        return len(self.op_class)

    def mix_counts(self) -> dict:
        """Instruction counts per :class:`OpClass` (cached)."""
        if self._mix_counts is None:
            values, counts = np.unique(self.op_class, return_counts=True)
            self._mix_counts = {
                OpClass(int(v)): int(c) for v, c in zip(values, counts)
            }
        return self._mix_counts

    def memory_fraction(self) -> float:
        counts = self.mix_counts()
        n_mem = counts.get(OpClass.LOAD, 0) + counts.get(OpClass.STORE, 0)
        return n_mem / len(self)


def generate_trace(
    profile: WorkloadProfile, n_instructions: int, seed: Optional[int] = None
) -> SyntheticTrace:
    """Generate a deterministic synthetic trace from a profile.

    The same ``(profile, n_instructions, seed)`` always yields the same
    trace, so experiments are reproducible.
    """
    if n_instructions <= 0:
        raise TraceError("n_instructions must be positive")
    rng = np.random.default_rng(profile.seed if seed is None else seed)
    n = n_instructions

    op = _draw_op_classes(profile, n, rng)
    dep1, dep2 = _draw_dependencies(profile, n, rng)
    mem_level = _draw_memory_levels(profile, op, rng)
    mispredict = _draw_mispredicts(profile, op, rng)
    icache_miss = rng.random(n) < profile.icache_miss_rate
    if profile.osc_period_instrs and profile.osc_kind != "none":
        _overlay_oscillation(profile, op, dep1, dep2, mem_level, mispredict, rng)

    return SyntheticTrace(
        profile=profile,
        op_class=op,
        dep1=dep1,
        dep2=dep2,
        mem_level=mem_level,
        mispredict=mispredict,
        icache_miss=icache_miss,
    )


def _draw_op_classes(
    profile: WorkloadProfile, n: int, rng: np.random.Generator
) -> np.ndarray:
    frac_compute = 1.0 - profile.frac_load - profile.frac_store - profile.frac_branch
    compute_fp = frac_compute * profile.frac_fp
    compute_int = frac_compute - compute_fp
    probabilities = np.array(
        [
            compute_int * (1.0 - profile.frac_mul),   # INT_ALU
            compute_int * profile.frac_mul,           # INT_MUL
            compute_fp * (1.0 - profile.frac_mul),    # FP_ALU
            compute_fp * profile.frac_mul,            # FP_MUL
            profile.frac_load,                        # LOAD
            profile.frac_store,                       # STORE
            profile.frac_branch,                      # BRANCH
        ]
    )
    probabilities = probabilities / probabilities.sum()
    return rng.choice(7, size=n, p=probabilities).astype(np.int8)


def _draw_dependencies(profile: WorkloadProfile, n: int, rng: np.random.Generator):
    mean = profile.mean_dep_distance
    dep1 = 1 + rng.geometric(p=min(1.0, 1.0 / mean), size=n) - 1
    dep1 = np.clip(dep1, 1, MAX_DEP_DISTANCE).astype(np.int32)
    has_dep2 = rng.random(n) < profile.dep2_probability
    dep2 = 1 + rng.geometric(p=min(1.0, 1.0 / mean), size=n) - 1
    dep2 = np.where(has_dep2, np.clip(dep2, 1, MAX_DEP_DISTANCE), 0).astype(np.int32)
    indices = np.arange(n, dtype=np.int32)
    dep1 = np.minimum(dep1, indices)
    dep2 = np.minimum(dep2, indices)
    return dep1, dep2


def _draw_memory_levels(
    profile: WorkloadProfile, op: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    n = len(op)
    mem_level = np.full(n, int(MemLevel.NONE), dtype=np.int8)
    is_mem = (op == int(OpClass.LOAD)) | (op == int(OpClass.STORE))
    miss1 = rng.random(n) < profile.l1_miss_rate
    miss2 = rng.random(n) < profile.l2_miss_rate
    level = np.where(miss1, np.where(miss2, int(MemLevel.MEMORY), int(MemLevel.L2)),
                     int(MemLevel.L1))
    mem_level[is_mem] = level[is_mem]
    return mem_level


def _draw_mispredicts(
    profile: WorkloadProfile, op: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    n = len(op)
    mispredict = np.zeros(n, dtype=bool)
    is_branch = op == int(OpClass.BRANCH)
    n_branches = int(is_branch.sum())
    if n_branches == 0:
        return mispredict
    if profile.branch_model == "gshare":
        from repro.uarch.branch_predictor import simulate_mispredicts

        mispredict[is_branch] = simulate_mispredicts(n_branches, rng)
    else:
        mispredict[is_branch] = rng.random(n_branches) < (
            profile.branch_mispredict_rate
        )
    return mispredict


def _overlay_oscillation(
    profile: WorkloadProfile,
    op: np.ndarray,
    dep1: np.ndarray,
    dep2: np.ndarray,
    mem_level: np.ndarray,
    mispredict: np.ndarray,
    rng: np.random.Generator,
) -> None:
    """Impose a periodic high/low activity structure on the trace.

    Every ``osc_period_instrs`` instructions (with optional jitter) a
    low-activity segment of ``osc_low_instrs`` instructions begins:

    * ``"serial"`` -- the segment becomes a single-dependency chain of
      integer ALU operations: it executes one instruction per cycle, so
      current drops for roughly ``osc_low_instrs`` cycles, then the
      independent instructions queued behind it issue in a burst.
    * ``"l2"`` / ``"mem"`` -- the segment head becomes a load missing to L2
      or memory and the rest of the segment depends on it.  Commit blocks at
      the load, the reorder buffer fills, dispatch stalls, and current stays
      low until the miss returns (the paper's Figure 4 shows exactly this
      flat-current window in *parser*).

    The oscillation period *in cycles* is emergent (roughly the low-segment
    stall plus the high segment divided by its IPC); profiles are tuned so
    violating benchmarks land inside the 84-119-cycle resonance band and
    benign ones do not.
    """
    n = len(op)
    period = profile.osc_period_instrs
    jitter = profile.osc_jitter_instrs
    kind = profile.osc_kind
    episode_periods = profile.osc_episode_periods
    position = period
    periods_done = 0
    while position < n - 1:
        if jitter:
            position += int(rng.integers(-jitter, jitter + 1))
            position = max(1, position)
            if position >= n - 1:
                break
        low_span = _write_low_segment(profile, position, op, dep1, dep2,
                                      mem_level, mispredict)
        if profile.osc_boost_ilp:
            _write_boosted_high_segment(
                position + low_span,
                min(position + period, n),
                profile.osc_boost_dep,
                dep1, dep2, mem_level, mispredict,
            )
        position += period
        periods_done += 1
        if episode_periods and periods_done >= episode_periods:
            periods_done = 0
            position += profile.osc_gap_instrs


def _write_low_segment(profile, position, op, dep1, dep2, mem_level, mispredict):
    """Write one low-activity segment; return the instructions it spans."""
    n = len(op)
    kind = profile.osc_kind
    tail = min(profile.osc_low_instrs, n - 1 - position)
    if kind == "serial":
        segment = slice(position, position + tail)
        op[segment] = int(OpClass.INT_ALU)
        mem_level[segment] = int(MemLevel.NONE)
        mispredict[segment] = False
        dep1[segment] = np.minimum(1, np.arange(position, position + tail))
        dep2[segment] = 0
        return tail
    op[position] = int(OpClass.LOAD)
    mem_level[position] = int(MemLevel.MEMORY) if kind == "mem" else int(MemLevel.L2)
    mispredict[position] = False
    dep1[position] = min(1, position)
    dep2[position] = 0
    # the rest of the segment depends on the missing load
    end = min(position + tail + 1, n)
    dependants = slice(position + 1, end)
    dep1[dependants] = np.arange(1, end - position)
    dep2[dependants] = 0
    mispredict[dependants] = False
    levels = mem_level[dependants]
    levels[levels == int(MemLevel.MEMORY)] = int(MemLevel.L1)  # one stall at a time
    return tail + 1


def _write_boosted_high_segment(
    start, end, boost_dep, dep1, dep2, mem_level, mispredict
):
    """Make ``[start, end)`` a hot phase: regular dependencies, no misses.

    With ``boost_dep == 0`` every instruction depends far back (already
    complete), so the segment issues as fast as the machine allows.  With a
    positive ``boost_dep`` each instruction depends on the one ``boost_dep``
    positions earlier, forming a dependency wavefront that caps the phase at
    roughly ``boost_dep`` instructions per mean-latency cycle -- this keeps
    the hot-phase current (and hence the variation amplitude) moderate, near
    the resonant current variation threshold rather than far above it.
    Memory operations are forced to L1 hits (a miss inside the hot phase
    would truncate it).
    """
    indices = np.arange(start, end)
    if boost_dep > 0:
        distance = boost_dep
    else:
        distance = 80 + (indices * 7) % 40
    segment = slice(start, end)
    dep1[segment] = np.minimum(distance, indices)
    dep2[segment] = 0
    mispredict[segment] = False
    levels = mem_level[segment]
    levels[levels > int(MemLevel.L1)] = int(MemLevel.L1)
