"""Tests for synthetic trace generation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, TraceError
from repro.uarch import MemLevel, OpClass, WorkloadProfile, generate_trace
from repro.uarch import trace as trace_module
from repro.uarch.trace import MAX_DEP_DISTANCE

from tests.strategies import workload_profiles


def make_profile(**kwargs):
    defaults = dict(name="test")
    defaults.update(kwargs)
    return WorkloadProfile(**defaults)


class TestProfileValidation:
    def test_default_profile_is_valid(self):
        make_profile()

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            make_profile(frac_load=1.5)

    def test_rejects_no_room_for_compute(self):
        with pytest.raises(ConfigurationError):
            make_profile(frac_load=0.5, frac_store=0.3, frac_branch=0.2)

    def test_rejects_bad_rates(self):
        with pytest.raises(ConfigurationError):
            make_profile(l1_miss_rate=-0.1)

    def test_rejects_tiny_dep_distance(self):
        with pytest.raises(ConfigurationError):
            make_profile(mean_dep_distance=0.5)

    def test_rejects_unknown_osc_kind(self):
        with pytest.raises(ConfigurationError):
            make_profile(osc_kind="sawtooth")

    def test_rejects_period_inside_low_segment(self):
        with pytest.raises(ConfigurationError):
            make_profile(osc_kind="serial", osc_period_instrs=20, osc_low_instrs=30)

    def test_rejects_episodes_without_gap(self):
        with pytest.raises(ConfigurationError):
            make_profile(
                osc_kind="serial",
                osc_period_instrs=100,
                osc_episode_periods=3,
                osc_gap_instrs=0,
            )

    def test_with_seed_returns_new_profile(self):
        profile = make_profile(seed=1)
        other = profile.with_seed(2)
        assert other.seed == 2
        assert profile.seed == 1


class TestGeneration:
    def test_deterministic_for_same_seed(self):
        profile = make_profile(seed=7)
        a = generate_trace(profile, 5000)
        b = generate_trace(profile, 5000)
        assert np.array_equal(a.op_class, b.op_class)
        assert np.array_equal(a.dep1, b.dep1)

    def test_different_seed_differs(self):
        profile = make_profile(seed=7)
        a = generate_trace(profile, 5000)
        b = generate_trace(profile, 5000, seed=8)
        assert not np.array_equal(a.op_class, b.op_class)

    def test_rejects_empty_trace(self):
        with pytest.raises(TraceError):
            generate_trace(make_profile(), 0)

    def test_mix_close_to_profile(self):
        profile = make_profile(frac_load=0.3, frac_store=0.1, frac_branch=0.1)
        trace = generate_trace(profile, 50_000)
        counts = trace.mix_counts()
        assert counts[OpClass.LOAD] / len(trace) == pytest.approx(0.3, abs=0.02)
        assert counts[OpClass.STORE] / len(trace) == pytest.approx(0.1, abs=0.02)
        assert counts[OpClass.BRANCH] / len(trace) == pytest.approx(0.1, abs=0.02)
        assert trace.memory_fraction() == pytest.approx(0.4, abs=0.03)

    def test_fp_fraction(self):
        profile = make_profile(frac_fp=1.0)
        trace = generate_trace(profile, 20_000)
        counts = trace.mix_counts()
        assert counts.get(OpClass.INT_ALU, 0) == 0
        assert counts.get(OpClass.INT_MUL, 0) == 0
        assert counts.get(OpClass.FP_ALU, 0) > 0

    def test_dependencies_point_backwards(self):
        trace = generate_trace(make_profile(), 10_000)
        indices = np.arange(len(trace))
        assert np.all(trace.dep1 <= indices)
        assert np.all(trace.dep2 <= indices)
        assert np.all(trace.dep1 <= MAX_DEP_DISTANCE)
        assert np.all(trace.dep1 >= 0)

    def test_mem_levels_only_on_memory_ops(self):
        trace = generate_trace(make_profile(), 10_000)
        is_mem = (trace.op_class == int(OpClass.LOAD)) | (
            trace.op_class == int(OpClass.STORE)
        )
        assert np.all(trace.mem_level[~is_mem] == int(MemLevel.NONE))
        assert np.all(trace.mem_level[is_mem] >= int(MemLevel.L1))

    def test_miss_rates_respected(self):
        profile = make_profile(l1_miss_rate=0.2, l2_miss_rate=0.5)
        trace = generate_trace(profile, 100_000)
        mem = trace.mem_level[trace.mem_level >= 0]
        miss_fraction = np.mean(mem >= int(MemLevel.L2))
        assert miss_fraction == pytest.approx(0.2, abs=0.03)
        to_memory = np.mean(mem == int(MemLevel.MEMORY))
        assert to_memory == pytest.approx(0.1, abs=0.02)

    def test_mispredicts_only_on_branches(self):
        trace = generate_trace(make_profile(branch_mispredict_rate=0.5), 20_000)
        not_branch = trace.op_class != int(OpClass.BRANCH)
        assert not np.any(trace.mispredict[not_branch])
        branches = trace.op_class == int(OpClass.BRANCH)
        rate = np.mean(trace.mispredict[branches])
        assert rate == pytest.approx(0.5, abs=0.05)

    def test_column_length_mismatch_raises(self):
        trace = generate_trace(make_profile(), 100)
        from repro.uarch import SyntheticTrace

        with pytest.raises(TraceError):
            SyntheticTrace(
                profile=trace.profile,
                op_class=trace.op_class,
                dep1=trace.dep1[:50],
                dep2=trace.dep2,
                mem_level=trace.mem_level,
                mispredict=trace.mispredict,
            )


class TestOscillationOverlay:
    def test_serial_overlay_creates_chains(self):
        profile = make_profile(
            osc_kind="serial", osc_period_instrs=200, osc_low_instrs=40
        )
        trace = generate_trace(profile, 2000)
        segment = slice(200, 240)
        assert np.all(trace.op_class[segment] == int(OpClass.INT_ALU))
        assert np.all(trace.dep1[segment] == 1)
        assert np.all(trace.dep2[segment] == 0)

    def test_mem_overlay_inserts_miss(self):
        profile = make_profile(
            osc_kind="mem", osc_period_instrs=200, osc_low_instrs=20
        )
        trace = generate_trace(profile, 2000)
        assert trace.op_class[200] == int(OpClass.LOAD)
        assert trace.mem_level[200] == int(MemLevel.MEMORY)
        # Dependants point back at the missing load.
        for offset in range(1, 21):
            assert trace.dep1[200 + offset] == offset

    def test_l2_overlay_uses_l2_level(self):
        profile = make_profile(
            osc_kind="l2", osc_period_instrs=200, osc_low_instrs=20
        )
        trace = generate_trace(profile, 2000)
        assert trace.mem_level[200] == int(MemLevel.L2)

    def test_boost_rewrites_high_segment(self):
        profile = make_profile(
            osc_kind="serial",
            osc_period_instrs=200,
            osc_low_instrs=40,
            osc_boost_ilp=True,
        )
        trace = generate_trace(profile, 2000)
        high = slice(240, 400)
        assert np.all(trace.dep1[high] >= 80)
        assert np.all(trace.dep2[high] == 0)
        assert np.all(trace.mem_level[high] <= int(MemLevel.L1))

    def test_episodes_leave_gaps(self):
        profile = make_profile(
            osc_kind="serial",
            osc_period_instrs=200,
            osc_low_instrs=40,
            osc_episode_periods=2,
            osc_gap_instrs=5000,
        )
        trace = generate_trace(profile, 20_000)
        # Inside the gap there must be no serial chains (no long runs of
        # dep1 == 1 INT_ALU instructions).
        gap = slice(800, 5000)
        chain = (trace.dep1[gap] == 1) & (
            trace.op_class[gap] == int(OpClass.INT_ALU)
        )
        # A few coincidental dep1==1 draws are fine; a 40-long run is not.
        longest = 0
        current = 0
        for flag in chain:
            current = current + 1 if flag else 0
            longest = max(longest, current)
        assert longest < 20

    def test_jitter_moves_boundaries(self):
        fixed = make_profile(
            osc_kind="serial", osc_period_instrs=200, osc_low_instrs=40
        )
        jittered = make_profile(
            osc_kind="serial",
            osc_period_instrs=200,
            osc_low_instrs=40,
            osc_jitter_instrs=30,
        )
        a = generate_trace(fixed, 5000)
        b = generate_trace(jittered, 5000)
        assert not np.array_equal(a.dep1, b.dep1)


def _loop_low_segment(profile, position, op, dep1, dep2, mem_level, mispredict):
    """Element-by-element reference for ``trace._write_low_segment``."""
    n = len(op)
    tail = min(profile.osc_low_instrs, n - 1 - position)
    if profile.osc_kind == "serial":
        for offset in range(tail):
            index = position + offset
            op[index] = int(OpClass.INT_ALU)
            mem_level[index] = int(MemLevel.NONE)
            mispredict[index] = False
            dep1[index] = min(1, index)
            dep2[index] = 0
        return tail
    op[position] = int(OpClass.LOAD)
    mem_level[position] = (
        int(MemLevel.MEMORY) if profile.osc_kind == "mem" else int(MemLevel.L2)
    )
    mispredict[position] = False
    dep1[position] = min(1, position)
    dep2[position] = 0
    for offset in range(1, tail + 1):
        index = position + offset
        if index >= n:
            break
        dep1[index] = offset
        dep2[index] = 0
        mispredict[index] = False
        if mem_level[index] == int(MemLevel.MEMORY):
            mem_level[index] = int(MemLevel.L1)
    return tail + 1


def _loop_boosted_high_segment(start, end, boost_dep, dep1, dep2, mem_level,
                               mispredict):
    """Element-by-element reference for ``trace._write_boosted_high_segment``."""
    for index in range(start, end):
        distance = boost_dep if boost_dep > 0 else 80 + (index * 7) % 40
        dep1[index] = min(distance, index)
        dep2[index] = 0
        mispredict[index] = False
        if mem_level[index] > int(MemLevel.L1):
            mem_level[index] = int(MemLevel.L1)


class TestOverlayMatchesLoopReference:
    """The overlay writes whole segments as numpy slices; the per-element
    loops they replaced must produce byte-identical traces."""

    @given(
        profile=workload_profiles(),
        n_instructions=st.sampled_from([50, 1_000, 20_000]),
    )
    @settings(max_examples=80, deadline=None)
    def test_byte_identical(self, profile, n_instructions):
        sliced = generate_trace(profile, n_instructions)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace_module, "_write_low_segment", _loop_low_segment)
            patch.setattr(
                trace_module, "_write_boosted_high_segment",
                _loop_boosted_high_segment,
            )
            looped = generate_trace(profile, n_instructions)
        for column in ("op_class", "dep1", "dep2", "mem_level", "mispredict",
                       "icache_miss"):
            a, b = getattr(sliced, column), getattr(looped, column)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes(), column


class TestSerialization:
    def test_round_trip(self, tmp_path):
        from repro.uarch import load_trace, save_trace

        profile = make_profile(
            osc_kind="serial", osc_period_instrs=200, osc_low_instrs=30,
            icache_miss_rate=0.01, seed=9,
        )
        trace = generate_trace(profile, 5_000)
        path = str(tmp_path / "trace.npz")
        save_trace(trace, path)
        loaded = load_trace(path)
        assert np.array_equal(loaded.op_class, trace.op_class)
        assert np.array_equal(loaded.dep1, trace.dep1)
        assert np.array_equal(loaded.mem_level, trace.mem_level)
        assert np.array_equal(loaded.icache_miss, trace.icache_miss)
        assert loaded.profile == trace.profile

    def test_loaded_trace_runs_identically(self, tmp_path):
        from repro.config import ProcessorConfig
        from repro.uarch import Pipeline, load_trace, save_trace

        trace = generate_trace(make_profile(seed=4), 20_000)
        path = str(tmp_path / "trace.npz")
        save_trace(trace, path)
        loaded = load_trace(path)
        a = Pipeline(trace, ProcessorConfig())
        b = Pipeline(loaded, ProcessorConfig())
        for _ in range(1_000):
            sa = a.step()
            sb = b.step()
            assert sa.current_amps == sb.current_amps
        assert a.total_committed == b.total_committed

    def test_rejects_garbage_file(self, tmp_path):
        from repro.uarch import load_trace

        path = tmp_path / "junk.npz"
        np.savez_compressed(str(path), nothing=np.zeros(3))
        with pytest.raises(TraceError):
            load_trace(str(path))
