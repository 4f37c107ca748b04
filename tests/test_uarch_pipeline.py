"""Integration tests for the out-of-order pipeline and processor facade."""

import numpy as np
import pytest

from repro.config import ProcessorConfig, TABLE1_PROCESSOR, TABLE1_SUPPLY
from repro.uarch import (
    ControlDirectives,
    MemLevel,
    OpClass,
    Pipeline,
    Processor,
    SyntheticTrace,
    WorkloadProfile,
    generate_trace,
)


def make_trace(op_classes, deps=None, mem_levels=None, mispredicts=None, name="t"):
    """Hand-build a tiny trace for targeted pipeline behaviour checks."""
    n = len(op_classes)
    profile = WorkloadProfile(name=name)
    deps = deps or [0] * n
    mem = mem_levels or [
        int(MemLevel.L1)
        if op in (int(OpClass.LOAD), int(OpClass.STORE))
        else int(MemLevel.NONE)
        for op in op_classes
    ]
    return SyntheticTrace(
        profile=profile,
        op_class=np.asarray(op_classes, dtype=np.int8),
        dep1=np.asarray(deps, dtype=np.int32),
        dep2=np.zeros(n, dtype=np.int32),
        mem_level=np.asarray(mem, dtype=np.int8),
        mispredict=np.asarray(mispredicts or [False] * n, dtype=bool),
    )


def run_until_committed(pipeline, count, max_cycles=10_000):
    cycles = 0
    while pipeline.total_committed < count and cycles < max_cycles:
        pipeline.step()
        cycles += 1
    assert pipeline.total_committed >= count, "pipeline made no progress"
    return cycles


class TestBasicExecution:
    def test_independent_alu_ops_reach_full_width(self):
        trace = make_trace([int(OpClass.INT_ALU)] * 4000)
        pipeline = Pipeline(trace, TABLE1_PROCESSOR)
        for _ in range(200):
            pipeline.step()
        assert pipeline.ipc == pytest.approx(8.0, rel=0.1)

    def test_serial_chain_runs_at_ipc_one(self):
        n = 2000
        trace = make_trace([int(OpClass.INT_ALU)] * n, deps=[0] + [1] * (n - 1))
        pipeline = Pipeline(trace, TABLE1_PROCESSOR)
        for _ in range(500):
            pipeline.step()
        assert pipeline.ipc == pytest.approx(1.0, rel=0.1)

    def test_int_mul_throughput_limited_by_pool(self):
        """Only 2 integer multipliers exist, so IPC caps at 2."""
        trace = make_trace([int(OpClass.INT_MUL)] * 4000)
        pipeline = Pipeline(trace, TABLE1_PROCESSOR)
        for _ in range(400):
            pipeline.step()
        assert pipeline.ipc == pytest.approx(2.0, rel=0.15)

    def test_branches_share_int_alus(self):
        """Branches and integer ALU ops draw from one pool of int ALUs."""
        config = ProcessorConfig(int_alus=2)
        ops = [int(OpClass.INT_ALU), int(OpClass.BRANCH)] * 4000
        pipeline = Pipeline(make_trace(ops), config)
        for _ in range(400):
            stats = pipeline.step()
            assert stats.issued <= config.int_alus
        assert pipeline.ipc == pytest.approx(config.int_alus, rel=0.1)

    def test_loads_limited_by_cache_ports(self):
        trace = make_trace([int(OpClass.LOAD)] * 4000)
        pipeline = Pipeline(trace, TABLE1_PROCESSOR)
        for _ in range(400):
            pipeline.step()
        assert pipeline.ipc == pytest.approx(2.0, rel=0.15)

    def test_commit_is_in_order(self):
        # A memory miss at the head delays commit of everything behind it.
        ops = [int(OpClass.LOAD)] + [int(OpClass.INT_ALU)] * 20
        mem = [int(MemLevel.MEMORY)] + [int(MemLevel.NONE)] * 20
        trace = make_trace(ops, mem_levels=mem)
        pipeline = Pipeline(trace, TABLE1_PROCESSOR)
        for _ in range(50):
            pipeline.step()
        # ALU ops finish immediately but cannot commit past the load.
        assert pipeline.total_committed == 0
        for _ in range(80):
            pipeline.step()
        assert pipeline.total_committed >= 21

    def test_trace_wraps_around(self):
        trace = make_trace([int(OpClass.INT_ALU)] * 64)
        pipeline = Pipeline(trace, TABLE1_PROCESSOR)
        run_until_committed(pipeline, 1000)


class TestMemoryBehaviour:
    def test_memory_miss_stalls_dependants(self):
        n = 400
        ops = [int(OpClass.INT_ALU)] * n
        ops[0] = int(OpClass.LOAD)
        deps = [0] * n
        mem = [int(MemLevel.NONE)] * n
        mem[0] = int(MemLevel.MEMORY)
        for i in range(1, n):
            deps[i] = i  # everything depends on the missing load
        trace = make_trace(ops, deps=deps, mem_levels=mem)
        pipeline = Pipeline(trace, TABLE1_PROCESSOR)
        config = TABLE1_PROCESSOR
        miss_latency = (
            config.l1_hit_cycles + config.l2_hit_cycles + config.memory_cycles
        )
        for _ in range(miss_latency - 2):
            pipeline.step()
        assert pipeline.total_committed == 0
        for _ in range(60):
            pipeline.step()
        assert pipeline.total_committed > 100

    def test_l2_hit_faster_than_memory(self):
        def latency_to_commit(level):
            ops = [int(OpClass.LOAD), int(OpClass.INT_ALU)]
            mem = [level, int(MemLevel.NONE)]
            trace = make_trace(ops, deps=[0, 1], mem_levels=mem)
            pipeline = Pipeline(trace, TABLE1_PROCESSOR)
            cycles = 0
            while pipeline.total_committed < 2 and cycles < 500:
                pipeline.step()
                cycles += 1
            return cycles

        assert latency_to_commit(int(MemLevel.L2)) < latency_to_commit(
            int(MemLevel.MEMORY)
        )

    def test_rob_fills_during_long_miss(self):
        profile = WorkloadProfile(
            name="m", osc_kind="mem", osc_period_instrs=4000, osc_low_instrs=24
        )
        trace = generate_trace(profile, 30_000)
        pipeline = Pipeline(trace, TABLE1_PROCESSOR)
        max_occupancy = 0
        for _ in range(3000):
            stats = pipeline.step()
            max_occupancy = max(max_occupancy, stats.rob_occupancy)
        assert max_occupancy == TABLE1_PROCESSOR.rob_entries


class TestBranches:
    def test_mispredict_creates_bubble(self):
        n = 3000
        ops = [int(OpClass.INT_ALU)] * n
        mispredicts = [False] * n
        for i in range(50, n, 100):
            ops[i] = int(OpClass.BRANCH)
            mispredicts[i] = True
        clean = Pipeline(make_trace(ops), TABLE1_PROCESSOR)
        dirty = Pipeline(make_trace(ops, mispredicts=mispredicts), TABLE1_PROCESSOR)
        for _ in range(300):
            clean.step()
            dirty.step()
        assert dirty.total_committed < clean.total_committed


class TestControlDirectives:
    @pytest.fixture
    def busy_trace(self):
        return make_trace([int(OpClass.INT_ALU)] * 20_000)

    def test_issue_width_limit_halves_throughput(self, busy_trace):
        pipeline = Pipeline(busy_trace, TABLE1_PROCESSOR)
        directives = ControlDirectives(issue_width_limit=4)
        for _ in range(400):
            pipeline.step(directives)
        assert pipeline.ipc == pytest.approx(4.0, rel=0.1)

    def test_cache_port_limit_halves_load_throughput(self):
        trace = make_trace([int(OpClass.LOAD)] * 20_000)
        pipeline = Pipeline(trace, TABLE1_PROCESSOR)
        directives = ControlDirectives(cache_ports_limit=1)
        for _ in range(400):
            pipeline.step(directives)
        assert pipeline.ipc == pytest.approx(1.0, rel=0.15)

    def test_cache_port_limit_above_capacity_clamps_to_capacity(self):
        trace = make_trace([int(OpClass.LOAD)] * 20_000)
        pipeline = Pipeline(trace, TABLE1_PROCESSOR)
        directives = ControlDirectives(cache_ports_limit=10)
        for _ in range(400):
            stats = pipeline.step(directives)
            assert stats.issued <= TABLE1_PROCESSOR.cache_ports
        assert pipeline.ipc == pytest.approx(
            TABLE1_PROCESSOR.cache_ports, rel=0.15
        )

    def test_stall_issue_stops_execution(self, busy_trace):
        pipeline = Pipeline(busy_trace, TABLE1_PROCESSOR)
        for _ in range(20):
            pipeline.step()
        committed_before = pipeline.total_committed
        stall = ControlDirectives(stall_issue=True)
        for _ in range(20):
            pipeline.step(stall)
        # Already-issued instructions may drain, but nothing new issues.
        assert pipeline.total_committed <= committed_before + 16

    def test_stall_fetch_starves_pipeline(self, busy_trace):
        pipeline = Pipeline(busy_trace, TABLE1_PROCESSOR)
        stall = ControlDirectives(stall_fetch=True)
        for _ in range(100):
            pipeline.step(stall)
        assert pipeline.total_dispatched == 0

    def test_current_floor_adds_phantom(self, busy_trace):
        pipeline = Pipeline(busy_trace, TABLE1_PROCESSOR)
        directives = ControlDirectives(
            stall_issue=True, stall_fetch=True, current_floor_amps=70.0
        )
        stats = None
        for _ in range(30):
            stats = pipeline.step(directives)
        assert stats.current_amps == pytest.approx(70.0, abs=1.0)
        assert stats.phantom_amps > 0

    def test_issue_estimate_bounds_cap_issue(self, busy_trace):
        pipeline = Pipeline(busy_trace, TABLE1_PROCESSOR)
        estimate = pipeline.power.apriori_issue_estimate(int(OpClass.INT_ALU))
        cap = 3 * estimate + 0.1
        directives = ControlDirectives(issue_estimate_bounds=(0.0, cap))
        for _ in range(300):
            stats = pipeline.step(directives)
            assert stats.issued <= 3
        assert pipeline.ipc == pytest.approx(3.0, rel=0.15)

    def test_issue_estimate_lower_bound_pads_with_phantom(self):
        # A stalled machine issues nothing, so damping's lower bound must be
        # met entirely with phantom current.
        trace = make_trace([int(OpClass.INT_ALU)] * 10)
        pipeline = Pipeline(trace, TABLE1_PROCESSOR)
        directives = ControlDirectives(
            stall_issue=True, issue_estimate_bounds=(10.0, 50.0)
        )
        stats = pipeline.step(directives)
        assert stats.phantom_amps == pytest.approx(10.0)
        assert stats.issued_estimate_amps == pytest.approx(10.0)


class TestProcessorFacade:
    def test_from_profile_runs(self):
        processor = Processor.from_profile(
            WorkloadProfile(name="x"), n_instructions=5000,
            supply_config=TABLE1_SUPPLY,
        )
        for _ in range(500):
            stats = processor.step()
        assert processor.cycle == 500
        assert processor.committed_instructions > 0
        assert processor.total_energy_joules > 0
        assert stats.current_amps >= TABLE1_PROCESSOR.min_current_amps

    def test_current_stays_in_configured_range(self):
        processor = Processor.from_profile(
            WorkloadProfile(name="x", mean_dep_distance=12.0),
            n_instructions=20_000,
        )
        config = processor.config
        for _ in range(2000):
            stats = processor.step()
            assert (
                config.min_current_amps
                <= stats.current_amps
                <= config.max_current_amps * 1.05
            )

    def test_estimates_exposed(self):
        processor = Processor.from_profile(WorkloadProfile(name="x"), 1000)
        assert processor.apriori_issue_estimate(int(OpClass.LOAD)) > 0


class TestICacheAndMSHR:
    def test_icache_miss_stalls_frontend(self):
        from repro.uarch import generate_trace

        profile = WorkloadProfile(name="ic", icache_miss_rate=0.02)
        trace = generate_trace(profile, 30_000)
        with_miss = Pipeline(trace, TABLE1_PROCESSOR)
        clean = Pipeline(
            generate_trace(WorkloadProfile(name="c"), 30_000), TABLE1_PROCESSOR
        )
        for _ in range(2_000):
            with_miss.step()
            clean.step()
        assert with_miss.icache_stalls > 0
        assert with_miss.ipc < clean.ipc

    def test_mshr_limits_outstanding_misses(self):
        import numpy as np
        from repro.config import ProcessorConfig
        from repro.uarch import MemLevel, SyntheticTrace

        # A stream of independent memory-missing loads.
        n = 2_000
        trace = make_trace(
            [int(OpClass.LOAD)] * n,
            mem_levels=[int(MemLevel.MEMORY)] * n,
        )
        tight = Pipeline(trace, ProcessorConfig(mshr_entries=1))
        loose = Pipeline(
            make_trace([int(OpClass.LOAD)] * n,
                       mem_levels=[int(MemLevel.MEMORY)] * n),
            ProcessorConfig(mshr_entries=64),
        )
        for _ in range(3_000):
            tight.step()
            loose.step()
        assert tight.mshr_stall_cycles > 0
        assert tight.total_committed < loose.total_committed

    def test_default_config_rarely_binds(self):
        """Table 1 profiles were tuned before MSHRs existed; the default
        capacity must not change their behaviour materially."""
        from repro.uarch import SPEC2K, generate_trace

        trace = generate_trace(SPEC2K["swim"], 40_000)
        pipeline = Pipeline(trace, TABLE1_PROCESSOR)
        for _ in range(5_000):
            pipeline.step()
        assert pipeline.mshr_stall_cycles < 0.05 * pipeline.cycle

    def test_config_validation(self):
        from repro.config import ProcessorConfig
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ProcessorConfig(mshr_entries=0)
        with pytest.raises(ConfigurationError):
            ProcessorConfig(icache_miss_penalty=-1)
