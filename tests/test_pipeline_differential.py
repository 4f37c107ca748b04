"""Differential fuzz: the timing-wheel pipeline vs the heap-scheduled reference.

:class:`repro.uarch.pipeline.Pipeline` keeps completions and wake-ups in
timing wheels, counts issue slots per pool in the issue loop, shares
prebuilt cache-access records and accumulates current in a list ring sized
from the config.  ``tests/reference_pipeline.py`` keeps the heap-based
scheduler, pool and port arbiters, per-access records and fixed numpy ring
it replaced.  Stepped in lockstep on random workloads, processor configs
and control-directive schedules, the two must agree on every cycle's
:class:`CycleStats` to the bit and on every end counter.  The goldens
only cover Table 1 cells; this covers the directive space the
controllers reach and the corners they do not.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.config import TABLE1_PROCESSOR
from repro.uarch import ControlDirectives, Pipeline, generate_trace

from tests.reference_pipeline import ReferencePipeline
from tests.strategies import workload_profiles

#: Cycles per example: long enough for several memory misses, mispredict
#: bubbles and ROB fills under each directive segment.
CYCLES = 600


def _stats_key(stats):
    """Every CycleStats field, floats by their exact bits."""
    return (
        stats.cycle,
        float(stats.current_amps).hex(),
        float(stats.phantom_amps).hex(),
        stats.dispatched,
        stats.issued,
        stats.committed,
        float(stats.issued_estimate_amps).hex(),
        stats.rob_occupancy,
    )


def _end_counters(pipeline):
    return (
        pipeline.cycle,
        pipeline.seq_dispatch,
        pipeline.seq_commit,
        pipeline.icache_stalls,
        pipeline.mshr_stall_cycles,
        pipeline.total_dispatched,
        pipeline.total_issued,
        pipeline.total_committed,
        pipeline.branch_unit.mispredicts,
        pipeline.cache.l1_accesses,
        pipeline.cache.l2_accesses,
        pipeline.cache.memory_accesses,
        float(pipeline.power.total_energy_joules).hex(),
        float(pipeline.power.phantom_energy_joules).hex(),
    )


@st.composite
def processor_configs(draw):
    """Table 1 with resources and latencies varied (slowest access < 256)."""
    return replace(
        TABLE1_PROCESSOR,
        int_alus=draw(st.integers(1, 8)),
        int_muls=draw(st.integers(0, 3)),
        fp_alus=draw(st.integers(1, 4)),
        fp_muls=draw(st.integers(0, 3)),
        cache_ports=draw(st.integers(1, 3)),
        l1_hit_cycles=draw(st.integers(1, 4)),
        l2_hit_cycles=draw(st.integers(1, 20)),
        memory_cycles=draw(st.integers(1, 200)),
        mshr_entries=draw(st.integers(1, 8)),
        lsq_entries=draw(st.sampled_from([8, 32, 128])),
        branch_mispredict_penalty=draw(st.integers(0, 12)),
        icache_miss_penalty=draw(st.integers(0, 12)),
    )


@st.composite
def directives(draw):
    """One directive set: any combination of the controllers' levers."""
    bounds = None
    if draw(st.booleans()):
        low = draw(st.integers(0, 40)) / 2.0
        bounds = (low, low + draw(st.integers(0, 40)) / 2.0)
    return ControlDirectives(
        issue_width_limit=draw(st.one_of(st.none(), st.integers(0, 10))),
        # above capacity included: the limit must clamp, not add ports
        cache_ports_limit=draw(st.one_of(st.none(), st.integers(0, 5))),
        stall_issue=draw(st.booleans()),
        stall_fetch=draw(st.booleans()),
        current_floor_amps=draw(
            st.sampled_from([0.0, 0.0, 40.0, 70.0, 110.0])
        ),
        issue_estimate_bounds=bounds,
    )


@st.composite
def directive_schedules(draw):
    """Per-cycle directives: random segments, mostly uncontrolled."""
    schedule = []
    while len(schedule) < CYCLES:
        control = draw(st.one_of(st.just(ControlDirectives()), directives()))
        schedule += [control] * draw(st.integers(1, 150))
    return schedule[:CYCLES]


class TestPipelineDifferential:
    @given(
        profile=workload_profiles(),
        config=st.one_of(st.just(TABLE1_PROCESSOR), processor_configs()),
        schedule=directive_schedules(),
        n_instructions=st.sampled_from([300, 5_000]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_heap_reference(self, profile, config, schedule, n_instructions):
        trace = generate_trace(profile, n_instructions)
        pipeline = Pipeline(trace, config)
        reference = ReferencePipeline(trace, config)
        for control in schedule:
            fast = _stats_key(pipeline.step(control))
            slow = _stats_key(reference.step(control))
            assert fast == slow, f"cycle {fast[0]}: {fast} != {slow}"
        assert _end_counters(pipeline) == _end_counters(reference)
