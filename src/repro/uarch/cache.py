"""Cache-hierarchy timing model (Table 1 parameters).

The hierarchy is trace-annotated: each memory operation in a synthetic trace
carries the level it hits at (L1, L2 or memory), and this model converts the
level into a load-use latency and accounts the accesses for the power model.
Port arbitration (two L1 ports, shared by loads and stores, reducible to one
by the resonance-tuning first-level response) is enforced by the pipeline's
issue loop, which counts port claims like functional-unit claims.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ProcessorConfig
from repro.errors import SimulationError
from repro.uarch.isa import EXECUTION_LATENCY, MemLevel

__all__ = ["CacheAccess", "CacheHierarchy"]


@dataclass(frozen=True)
class CacheAccess:
    """Latency and hierarchy traffic of one memory operation."""

    latency: int
    touches_l2: bool
    touches_memory: bool


def memory_latency(config: ProcessorConfig) -> int:
    """Load-use latency of a load that misses to memory: L1 + L2 + memory."""
    return config.l1_hit_cycles + config.l2_hit_cycles + config.memory_cycles


def longest_latency(config: ProcessorConfig) -> int:
    """Cycles from issue to completion of the slowest operation.

    That is a load missing to memory unless a functional unit is slower.
    It bounds how far ahead of the current cycle the pipeline schedules an
    event and how many cycles one access spreads its current over, so it
    sizes the per-cycle rings of :mod:`repro.uarch.pipeline` and
    :mod:`repro.uarch.power_model`.
    """
    return max(memory_latency(config), max(EXECUTION_LATENCY.values()))


class CacheHierarchy:
    """Maps trace memory levels to latencies and traffic.

    Latencies accumulate down the hierarchy: an L2 hit pays the L1 lookup
    plus the L2 access; a memory access pays L1 + L2 + memory.
    """

    def __init__(self, config: ProcessorConfig):
        self.config = config
        self._latency = {
            int(MemLevel.L1): config.l1_hit_cycles,
            int(MemLevel.L2): config.l1_hit_cycles + config.l2_hit_cycles,
            int(MemLevel.MEMORY): memory_latency(config),
        }
        # The six possible outcomes, as (load, store) records per level:
        # an access returns a shared immutable record instead of a new one.
        self._records = {
            level: tuple(
                CacheAccess(
                    latency=1 if is_store else latency,
                    touches_l2=level >= int(MemLevel.L2),
                    touches_memory=level >= int(MemLevel.MEMORY),
                )
                for is_store in (False, True)
            )
            for level, latency in self._latency.items()
        }
        self.l1_accesses = 0
        self.l2_accesses = 0
        self.memory_accesses = 0

    def access(self, mem_level: int, is_store: bool) -> CacheAccess:
        """Record one access and return its timing.

        Stores retire into a write buffer: they occupy a cache port but
        complete in a single cycle regardless of where the line lives (their
        miss traffic still shows up as L2/memory energy).
        """
        records = self._records.get(mem_level)
        if records is None:
            raise SimulationError(f"not a memory operation (level {mem_level})")
        self.l1_accesses += 1
        record = records[1 if is_store else 0]
        if record.touches_l2:
            self.l2_accesses += 1
            if record.touches_memory:
                self.memory_accesses += 1
        return record

    def latency_for(self, mem_level: int) -> int:
        """Load-use latency for a given hierarchy level (no accounting)."""
        if mem_level not in self._latency:
            raise SimulationError(f"not a memory operation (level {mem_level})")
        return self._latency[mem_level]

    def reset_counters(self) -> None:
        self.l1_accesses = 0
        self.l2_accesses = 0
        self.memory_accesses = 0
