"""Differential conformance suite for trace record/replay (repro.trace).

The contract: a sweep running against a trace store -- cold (recording)
or warm (replaying) -- produces aggregates **bit-identical** to the same
sweep with no store at all, across random workloads, supply variants,
controller variants, all six sensor fault models, resonant-attacker
overlays, both execution paths (vectorized kernel and ``REPRO_KERNEL=0``
scalar loop) and every sweep backend.  Replay is an optimization with a
guard, never an approximation; any byte of drift here is a bug.
"""

import dataclasses
import json
import tempfile
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TABLE1_PROCESSOR, TABLE1_SUPPLY
from repro.core import ResonanceTuningController
from repro.core.controller import NullController
from repro.faults import FaultySensor, ResonantAttacker
from repro.oracles import golden
from repro.power import PowerSupply
from repro.sim import BenchmarkRunner, ResilienceConfig, SweepConfig
from repro.sim.simulation import Simulation
from repro.trace import (
    ReplaySimulation,
    TraceCapture,
    TraceKey,
    TracePayload,
)
from repro.uarch import Processor
from tests.strategies import fault_overlays, workload_profiles

SMALL = SweepConfig(n_cycles=1100, warmup_cycles=150)


def fingerprint(summary):
    return json.dumps(dataclasses.asdict(summary), sort_keys=True)


def tuning_factory(supply, processor):
    """Module-level factory: picklable into pool workers."""
    return ResonanceTuningController(supply, processor)


class FaultedTuningFactory:
    """Picklable factory mounting a seeded fault chain on the sensor.

    Fault models carry RNG state, so every cell gets pristine copies --
    the same discipline as the fault-injection campaign's per-cell
    builder -- keeping repeated sweeps bit-identical.
    """

    def __init__(self, faults):
        self.faults = tuple(faults)

    def __call__(self, supply, processor):
        import copy

        faults = copy.deepcopy(list(self.faults))
        sensor = FaultySensor(faults) if faults else None
        return ResonanceTuningController(supply, processor, sensor=sensor)


class Attack:
    """Picklable supply transform wrapping every supply in an attacker."""

    def __init__(self, amplitude_amps):
        self.amplitude_amps = amplitude_amps

    def __call__(self, supply, benchmark):
        return ResonantAttacker(
            supply, amplitude_amps=self.amplitude_amps, seed=99
        )


def run_differential(config, factory, benchmarks, supply_transform=None,
                     expect_hits=True):
    """Plain vs cold-store vs warm-store sweeps; assert byte-identical."""
    plain = BenchmarkRunner(
        config, supply_transform=supply_transform
    ).sweep(factory, benchmarks=benchmarks)
    with tempfile.TemporaryDirectory() as store_dir:
        cold = BenchmarkRunner(
            config, supply_transform=supply_transform, trace_store=store_dir
        ).sweep(factory, benchmarks=benchmarks)
        warm = BenchmarkRunner(
            config, supply_transform=supply_transform, trace_store=store_dir
        ).sweep(factory, benchmarks=benchmarks)
    assert fingerprint(cold) == fingerprint(plain)
    assert fingerprint(warm) == fingerprint(plain)
    assert warm == plain
    if expect_hits:
        assert cold.timings["trace_records"] >= 1.0
        assert warm.timings["trace_hits"] >= 1.0
        assert warm.timings["trace_guard_failures"] == 0.0
    return plain, cold, warm


# ----------------------------------------------------------------------
# Committed goldens carry the replay fingerprint
# ----------------------------------------------------------------------

class TestGoldenReplayFingerprints:
    def test_base_cells_have_trace_addresses(self):
        cells = golden.load_goldens()["cells"]
        for key, record in cells.items():
            sha = record["replay_trace_sha256"]
            if key.endswith("/base"):
                assert isinstance(sha, str) and len(sha) == 64
            else:
                # Feedback controllers have no replayable schedule.
                assert sha is None

    def test_recomputed_cell_matches_committed_fingerprint(self):
        # compute_cell runs the in-memory replay self-check internally; a
        # divergence raises rather than returning a digest.
        cell = next(
            c for c in golden.GOLDEN_CELLS
            if c.benchmark == "gzip" and c.technique == "base"
        )
        record = golden.compute_cell(cell)
        committed = golden.load_goldens()["cells"]["gzip/base"]
        assert record["replay_trace_sha256"] == committed["replay_trace_sha256"]


# ----------------------------------------------------------------------
# Direct-API differential over random workloads
# ----------------------------------------------------------------------

def _full_run(profile, supply_config, n_cycles, warmup, capture_key=None):
    processor = Processor.from_profile(
        profile,
        n_instructions=6 * (n_cycles + warmup),
        config=TABLE1_PROCESSOR,
        supply_config=supply_config,
    )
    supply = PowerSupply(
        supply_config, initial_current=TABLE1_PROCESSOR.min_current_amps
    )
    simulation = Simulation(
        processor, supply, None, record=True,
        benchmark=profile.name, warmup_cycles=warmup,
    )
    if capture_key is not None:
        simulation.capture = TraceCapture(capture_key)
    result = simulation.run(n_cycles)
    return simulation, result


class TestDirectReplayDifferential:
    @given(
        profile=workload_profiles(),
        n_cycles=st.integers(400, 900),
        warmup=st.integers(50, 200),
        cap_scale=st.sampled_from([0.5, 1.0, 2.0]),
    )
    @settings(max_examples=8, deadline=None)
    def test_replay_is_bit_identical_across_supply_variants(
        self, profile, n_cycles, warmup, cap_scale
    ):
        """Record once, replay bit-exactly -- against a *different* supply.

        The store key deliberately omits the supply: a feedback-free trace
        is supply-independent, so one record must serve every RLC variant.
        This is the design-space reuse the ``>=5x`` bench speedup rests on.
        """
        key = TraceKey(
            benchmark=profile.name,
            workload=asdict(profile),
            seed=profile.seed,
            n_instructions=6 * (n_cycles + warmup),
            processor=asdict(TABLE1_PROCESSOR),
            n_cycles=n_cycles,
            warmup_cycles=warmup,
            schedule="null",
            overlay="none",
        )
        recorded_sim, recorded = _full_run(
            profile, TABLE1_SUPPLY, n_cycles, warmup, capture_key=key
        )
        capture = recorded_sim.capture
        assert capture.completed, "base capture must pass the replay proof"
        payload = TracePayload.from_capture(capture)

        variant = replace(
            TABLE1_SUPPLY,
            capacitance_farads=TABLE1_SUPPLY.capacitance_farads * cap_scale,
        )
        for supply_config, reference_sim, reference in (
            (TABLE1_SUPPLY, recorded_sim, recorded),
            (variant, *_full_run(profile, variant, n_cycles, warmup)),
        ):
            supply = PowerSupply(
                supply_config,
                initial_current=TABLE1_PROCESSOR.min_current_amps,
            )
            replay_sim = ReplaySimulation(
                payload, supply, None, record=True, benchmark=profile.name
            )
            replayed = replay_sim.run(n_cycles)
            assert replayed == reference
            assert replay_sim.currents == reference_sim.currents
            assert replay_sim.voltages == reference_sim.voltages


# ----------------------------------------------------------------------
# Runner-level differential: fault models, attackers, supply variants
# ----------------------------------------------------------------------

class TestRunnerReplayDifferential:
    def test_clean_tuning_sweep(self):
        run_differential(SMALL, tuning_factory, ("gzip", "swim"))

    @given(faults=fault_overlays(max_faults=3))
    @settings(max_examples=6, deadline=None)
    def test_faulted_sensor_sweeps(self, faults):
        """Seeded fault chains (all 6 models reachable) on the technique
        sensor: technique cells are not replayable, base cells are; the
        aggregates must stay byte-identical either way."""
        run_differential(SMALL, FaultedTuningFactory(faults), ("swim",))

    @given(
        amplitude=st.sampled_from([6.0, 12.0, 20.0]),
        cap_scale=st.sampled_from([0.5, 1.0, 2.0]),
    )
    @settings(max_examples=4, deadline=None)
    def test_attacker_overlay_and_supply_variants(self, amplitude, cap_scale):
        """Attacker-wrapped supplies force the scalar replay loop; the
        overlay token keys the store so attacked and clean traces never
        alias."""
        config = replace(
            SMALL,
            supply=replace(
                TABLE1_SUPPLY,
                capacitance_farads=(
                    TABLE1_SUPPLY.capacitance_farads * cap_scale
                ),
            ),
        )
        run_differential(
            config, tuning_factory, ("gzip",),
            supply_transform=Attack(amplitude),
        )

    def test_unpicklable_overlay_disables_replay_not_correctness(self):
        # A sweep refuses an overlay that does not pickle; a base run
        # takes it, and the replay gate keeps it away from the store.
        plain = BenchmarkRunner(
            SMALL, supply_transform=lambda s, b: s
        ).run_base("gzip")
        with tempfile.TemporaryDirectory() as store_dir:
            runner = BenchmarkRunner(
                SMALL, supply_transform=lambda s, b: s, trace_store=store_dir
            )
            stored = runner.run_base("gzip")
            stats = runner.session.trace_store.stats
            assert stats["records"] == 0
            assert stats["hits"] == 0
        assert stored == plain

    def test_scalar_path_replay(self, monkeypatch):
        """REPRO_KERNEL=0: the per-cycle replay loop, not run_supply."""
        from repro.core import kernel as core_kernel

        monkeypatch.setenv(core_kernel.KERNEL_ENV, "0")
        assert not core_kernel.kernel_enabled()
        run_differential(SMALL, tuning_factory, ("swim",))


# ----------------------------------------------------------------------
# Cross-backend equivalence over one shared store
# ----------------------------------------------------------------------

class TestCrossBackendReplay:
    BENCHMARKS = ("swim", "gzip")

    def test_sequential_and_pool_share_one_store(self, tmp_path):
        store_dir = str(tmp_path / "store")
        plain = BenchmarkRunner(SMALL).sweep(
            tuning_factory, benchmarks=self.BENCHMARKS
        )
        sequential = BenchmarkRunner(SMALL, trace_store=store_dir).sweep(
            tuning_factory, benchmarks=self.BENCHMARKS,
        )
        with BenchmarkRunner(SMALL, trace_store=store_dir) as pool_runner:
            pooled = pool_runner.sweep(
                tuning_factory, benchmarks=self.BENCHMARKS,
                resilience=ResilienceConfig(workers=2),
            )
        assert fingerprint(sequential) == fingerprint(plain)
        assert fingerprint(pooled) == fingerprint(plain)

    def test_cold_then_warm_summaries_identical(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cold = BenchmarkRunner(SMALL, trace_store=store_dir).sweep(
            tuning_factory, benchmarks=self.BENCHMARKS
        )
        warm = BenchmarkRunner(SMALL, trace_store=store_dir).sweep(
            tuning_factory, benchmarks=self.BENCHMARKS
        )
        assert warm == cold
        assert fingerprint(warm) == fingerprint(cold)
        # Only the out-of-band diagnostics may differ.
        assert cold.timings["trace_records"] >= 1.0
        assert warm.timings["trace_records"] == 0.0
        assert warm.timings["trace_hits"] >= 1.0
