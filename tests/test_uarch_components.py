"""Unit tests for cache, issue-slot, branch and power-model components."""

import numpy as np
import pytest

from repro.config import ProcessorConfig, TABLE1_PROCESSOR, TABLE1_SUPPLY
from repro.errors import ConfigurationError, SimulationError
from repro.uarch import (
    BranchUnit,
    CacheHierarchy,
    ControlDirectives,
    EnergyWeights,
    MemLevel,
    OpClass,
    Pipeline,
    PowerModel,
    SyntheticTrace,
    WorkloadProfile,
)


def independent_ops(op_class, n=400):
    """A trace of ``n`` independent ops of one class; memory ops hit in L1."""
    is_memory = op_class in (OpClass.LOAD, OpClass.STORE)
    level = MemLevel.L1 if is_memory else MemLevel.NONE
    return SyntheticTrace(
        profile=WorkloadProfile(name="independent"),
        op_class=np.full(n, int(op_class), dtype=np.int8),
        dep1=np.zeros(n, dtype=np.int32),
        dep2=np.zeros(n, dtype=np.int32),
        mem_level=np.full(n, int(level), dtype=np.int8),
        mispredict=np.zeros(n, dtype=bool),
    )


def step_stats(trace, cycles, directives=ControlDirectives()):
    """Step a Table 1 pipeline and return every cycle's ``CycleStats``."""
    pipeline = Pipeline(trace, TABLE1_PROCESSOR)
    return [pipeline.step(directives) for _ in range(cycles)]


class TestCacheHierarchy:
    def test_latencies_accumulate_down_the_hierarchy(self):
        cache = CacheHierarchy(TABLE1_PROCESSOR)
        l1 = cache.latency_for(int(MemLevel.L1))
        l2 = cache.latency_for(int(MemLevel.L2))
        mem = cache.latency_for(int(MemLevel.MEMORY))
        assert l1 == 2
        assert l2 == 2 + 12
        assert mem == 2 + 12 + 80

    def test_access_counts_traffic(self):
        cache = CacheHierarchy(TABLE1_PROCESSOR)
        cache.access(int(MemLevel.L1), is_store=False)
        cache.access(int(MemLevel.L2), is_store=False)
        cache.access(int(MemLevel.MEMORY), is_store=False)
        assert cache.l1_accesses == 3
        assert cache.l2_accesses == 2
        assert cache.memory_accesses == 1

    def test_stores_complete_quickly(self):
        cache = CacheHierarchy(TABLE1_PROCESSOR)
        access = cache.access(int(MemLevel.MEMORY), is_store=True)
        assert access.latency == 1
        assert access.touches_memory

    def test_non_memory_level_rejected(self):
        cache = CacheHierarchy(TABLE1_PROCESSOR)
        with pytest.raises(SimulationError):
            cache.access(int(MemLevel.NONE), is_store=False)
        with pytest.raises(SimulationError):
            cache.latency_for(99)

    def test_reset_counters(self):
        cache = CacheHierarchy(TABLE1_PROCESSOR)
        cache.access(int(MemLevel.L1), is_store=False)
        cache.reset_counters()
        assert cache.l1_accesses == 0


class TestFunctionalUnits:
    """The issue loop's per-cycle functional-unit pools."""

    def test_pool_exhaustion(self):
        stats = step_stats(independent_ops(OpClass.INT_MUL), 20)
        # All ops dispatched in cycle 0 are ready in cycle 1; the pool caps it.
        assert stats[0].dispatched > TABLE1_PROCESSOR.int_muls
        assert stats[1].issued == TABLE1_PROCESSOR.int_muls
        assert max(s.issued for s in stats) == TABLE1_PROCESSOR.int_muls

    def test_new_cycle_resets(self):
        stats = step_stats(independent_ops(OpClass.INT_MUL), 20)
        # An exhausted pool is full again the next cycle, every cycle.
        assert [s.issued for s in stats[1:]] == [TABLE1_PROCESSOR.int_muls] * 19


class TestCachePorts:
    """The issue loop's per-cycle L1 data-cache ports."""

    def test_two_ports_by_default(self):
        stats = step_stats(independent_ops(OpClass.LOAD), 20)
        assert TABLE1_PROCESSOR.cache_ports == 2
        assert [s.issued for s in stats[1:]] == [2] * 19

    def test_limit_clamps_ports(self):
        """The first-level response reduces ports from 2 to 1."""
        stats = step_stats(
            independent_ops(OpClass.LOAD), 20, ControlDirectives(cache_ports_limit=1)
        )
        assert [s.issued for s in stats[1:]] == [1] * 19


class TestBranchUnit:
    def test_fetch_blocked_until_resolve_plus_penalty(self):
        unit = BranchUnit(TABLE1_PROCESSOR)
        assert unit.fetch_allowed(0)
        unit.on_dispatch_mispredict(seq=10)
        assert not unit.fetch_allowed(5)
        unit.on_resolve(seq=10, cycle=20)
        penalty = TABLE1_PROCESSOR.branch_mispredict_penalty
        assert not unit.fetch_allowed(20 + penalty - 1)
        assert unit.fetch_allowed(20 + penalty)

    def test_resolve_of_other_branch_ignored(self):
        unit = BranchUnit(TABLE1_PROCESSOR)
        unit.on_dispatch_mispredict(seq=10)
        unit.on_resolve(seq=9, cycle=20)
        assert unit.blocked

    def test_mispredict_counter(self):
        unit = BranchUnit(TABLE1_PROCESSOR)
        unit.on_dispatch_mispredict(seq=1)
        unit.on_resolve(seq=1, cycle=5)
        unit.on_dispatch_mispredict(seq=2)
        assert unit.mispredicts == 2


class TestPowerModel:
    def test_idle_current_is_min(self):
        model = PowerModel(TABLE1_PROCESSOR)
        for _ in range(10):
            current = model.end_cycle()
        assert current == pytest.approx(TABLE1_PROCESSOR.min_current_amps)

    def test_sustained_peak_hits_max(self):
        """Sustained max-power activity must draw the Table 1 peak of 105 A."""
        config = TABLE1_PROCESSOR
        model = PowerModel(config)
        from repro.uarch.cache import CacheAccess

        current = 0.0
        for _ in range(40):  # settle the spread backlog
            model.add_dispatch(config.fetch_width)
            model.add_commit(config.commit_width)
            model.add_occupancy(config.rob_entries)
            # The calibration's max-power mix: 2 loads, 2 FP muls, 4 FP adds.
            for _ in range(config.cache_ports):
                model.add_issue(int(OpClass.LOAD), 2)
                model.add_cache_access(
                    CacheAccess(latency=2, touches_l2=False, touches_memory=False)
                )
            for _ in range(config.fp_muls):
                model.add_issue(int(OpClass.FP_MUL), 4)
            for _ in range(config.fp_alus):
                model.add_issue(int(OpClass.FP_ALU), 2)
            current = model.end_cycle()
        assert current == pytest.approx(config.max_current_amps, rel=0.02)

    def test_phantom_counted_separately(self):
        model = PowerModel(TABLE1_PROCESSOR)
        model.attach_supply(TABLE1_SUPPLY.vdd_volts, TABLE1_SUPPLY.cycle_seconds)
        current = model.end_cycle(phantom_amps=30.0)
        assert current == pytest.approx(TABLE1_PROCESSOR.min_current_amps + 30.0)
        assert model.phantom_energy_joules > 0
        assert model.phantom_energy_joules < model.total_energy_joules

    def test_spread_current_spans_latency(self):
        model = PowerModel(TABLE1_PROCESSOR)
        model.add_issue(int(OpClass.FP_MUL), 4)
        base = TABLE1_PROCESSOR.min_current_amps
        first = model.end_cycle()
        later = [model.end_cycle() for _ in range(4)]
        assert first > base
        assert later[0] > base          # FU current continues
        assert later[2] > base
        assert later[3] == pytest.approx(base)  # spread exhausted

    def test_preview_matches_end_cycle(self):
        model = PowerModel(TABLE1_PROCESSOR)
        model.add_dispatch(4)
        preview = model.preview_current()
        assert model.end_cycle() == pytest.approx(preview)

    def test_apriori_estimates_are_half_amp_units(self):
        model = PowerModel(TABLE1_PROCESSOR)
        for op in range(7):
            estimate = model.apriori_issue_estimate(op)
            assert estimate >= 0.5
            assert (estimate * 2) == pytest.approx(round(estimate * 2))

    def test_load_estimate_exceeds_int_alu(self):
        model = PowerModel(TABLE1_PROCESSOR)
        assert model.apriori_issue_estimate(
            int(OpClass.LOAD)
        ) > model.apriori_issue_estimate(int(OpClass.INT_ALU))

    def test_zero_weights_rejected(self):
        zero = EnergyWeights(
            dispatch=0.0, issue=0.0, commit=0.0, l1_access=0.0,
            l2_access=0.0, memory_access=0.0, rob_occupancy=0.0,
            fu={op: 0.0 for op in range(7)},
        )
        with pytest.raises(ConfigurationError):
            PowerModel(TABLE1_PROCESSOR, zero)

    def test_energy_accumulates(self):
        model = PowerModel(TABLE1_PROCESSOR)
        model.attach_supply(1.0, 1e-10)
        model.end_cycle()
        # 35 A * 1 V * 0.1 ns = 3.5 nJ
        assert model.total_energy_joules == pytest.approx(3.5e-9)

    def test_memory_spread_longer_than_table1_ring_does_not_wrap(self):
        """The ring is sized from the config, so any memory latency fits.

        One memory access draws ``memory_access / memory_cycles`` units in
        each of exactly ``memory_cycles`` cycles: a fixed 256-slot ring
        would charge cycles 0-43 twice and 256-299 not at all.
        """
        config = ProcessorConfig(memory_cycles=300)
        weights = EnergyWeights(l1_access=0.0, l2_access=0.0)
        model = PowerModel(config, weights)
        access = CacheHierarchy(config).access(int(MemLevel.MEMORY), is_store=False)
        model.add_cache_access(access)
        base = config.min_current_amps
        drawn = base + model.amps_per_unit * (weights.memory_access / 300)
        currents = [model.end_cycle() for _ in range(400)]
        assert currents[:300] == [drawn] * 300
        assert currents[300:] == [base] * 100
