"""Tests for the simulation loop, metrics and batch runner."""

import pytest

from repro.config import TABLE1_PROCESSOR, TABLE1_SUPPLY
from repro.core import NullController, ResonanceTuningController
from repro.errors import SimulationError
from repro.power import PowerSupply
from repro.sim import (
    BenchmarkRunner,
    Simulation,
    SimulationResult,
    SweepConfig,
    summarize,
)
from repro.uarch import Processor, SPEC2K, WorkloadProfile


def build_simulation(name="gzip", record=False, warmup=0, controller=None):
    processor = Processor.from_profile(
        SPEC2K[name], n_instructions=60_000,
        config=TABLE1_PROCESSOR, supply_config=TABLE1_SUPPLY,
    )
    supply = PowerSupply(TABLE1_SUPPLY, initial_current=35.0)
    return Simulation(
        processor, supply, controller, record=record,
        benchmark=name, warmup_cycles=warmup,
    )


class TestSimulation:
    def test_basic_run_produces_result(self):
        result = build_simulation().run(2000)
        assert result.cycles == 2000
        assert result.instructions > 0
        assert result.energy_joules > 0
        assert 0 < result.ipc < 8

    def test_record_collects_traces(self):
        simulation = build_simulation(record=True)
        simulation.run(500)
        assert len(simulation.currents) == 500
        assert len(simulation.voltages) == 500

    def test_warmup_excluded_from_stats(self):
        with_warmup = build_simulation(warmup=1000).run(2000)
        assert with_warmup.cycles == 2000
        # IPC should be steady-state, similar to a longer plain run's tail.
        plain = build_simulation().run(3000)
        assert with_warmup.ipc == pytest.approx(plain.ipc, rel=0.1)

    def test_warmup_recorded_traces_exclude_warmup(self):
        simulation = build_simulation(record=True, warmup=300)
        simulation.run(200)
        assert len(simulation.currents) == 200

    def test_runs_exactly_once(self):
        simulation = build_simulation()
        simulation.run(100)
        with pytest.raises(SimulationError):
            simulation.run(100)

    def test_rejects_bad_cycle_counts(self):
        with pytest.raises(SimulationError):
            build_simulation().run(0)
        with pytest.raises(SimulationError):
            build_simulation(warmup=-1)

    def test_controller_identity_recorded(self):
        result = build_simulation(
            controller=NullController()
        ).run(100)
        assert result.technique == "base"


class TestRecordReplay:
    """Recorded streams are a faithful, reproducible account of a run."""

    def test_reentry_rejected_without_corrupting_state(self):
        """The _ran guard fires before any stepping: a rejected re-entry
        must leave recorded streams and supply counters untouched."""
        simulation = build_simulation(record=True)
        simulation.run(250)
        currents = list(simulation.currents)
        cycle_count = simulation.supply.cycle
        for n_cycles in (250, 1):  # same and different arguments
            with pytest.raises(SimulationError):
                simulation.run(n_cycles)
        assert simulation.currents == currents
        assert simulation.supply.cycle == cycle_count

    def test_recorded_streams_match_fresh_identical_run(self):
        """record=True must not perturb, and the stack must be
        deterministic: two identically built runs agree cycle-for-cycle,
        bit-for-bit, on both recorded streams."""
        def run_once():
            controller = ResonanceTuningController(
                TABLE1_SUPPLY, TABLE1_PROCESSOR
            )
            simulation = build_simulation(
                name="swim", record=True, warmup=200, controller=controller
            )
            simulation.run(800)
            return simulation.currents, simulation.voltages

        first_currents, first_voltages = run_once()
        second_currents, second_voltages = run_once()
        assert first_currents == second_currents
        assert first_voltages == second_voltages


class _ScriptedStats:
    def __init__(self, current):
        self.current_amps = current


class _ScriptedPower:
    def attach_supply(self, vdd_volts, cycle_seconds):
        pass


class _ScriptedProcessor:
    """Plays back a fixed current waveform, one instruction per cycle."""

    def __init__(self, currents):
        self._currents = list(currents)
        self._cycle = 0
        self.power = _ScriptedPower()
        self.committed_instructions = 0
        self.total_energy_joules = 0.0
        self.phantom_energy_joules = 0.0

    def step(self, directives):
        current = self._currents[self._cycle]
        self._cycle += 1
        self.committed_instructions += 1
        self.total_energy_joules += 1e-12
        return _ScriptedStats(current)


class TestWarmupIsolation:
    """Warmup transients must leave no trace in steady-state statistics."""

    def _run_scripted(self, currents, warmup, steady):
        from repro.power import PowerSupply

        supply = PowerSupply(TABLE1_SUPPLY, initial_current=70.0)
        simulation = Simulation(
            _ScriptedProcessor(currents), supply,
            benchmark="scripted", warmup_cycles=warmup,
        )
        return supply, simulation.run(steady)

    def test_warmup_burst_does_not_leak_into_steady_state(self):
        from repro.power import RLCAnalysis, waveforms

        analysis = RLCAnalysis(TABLE1_SUPPLY)
        warmup, steady = 2000, 1500
        # Resonant burst confined to the first 600 warmup cycles; the ring
        # has 14 periods to decay before steady state begins.
        currents = waveforms.square_wave(
            warmup + steady, analysis.resonant_period_cycles,
            amplitude_pp=60.0, mean=70.0, start=0, end=600,
        )
        supply, result = self._run_scripted(currents, warmup, steady)
        assert supply.violation_cycles > 0       # the burst did violate...
        assert result.violation_cycles == 0      # ...but only during warmup
        assert result.violation_events == 0
        # The fixed leak: a warmup transient used to pin this forever.
        assert supply.first_violation_cycle is None

    def test_first_violation_cycle_reflects_steady_state(self):
        from repro.power import RLCAnalysis, waveforms

        analysis = RLCAnalysis(TABLE1_SUPPLY)
        warmup, steady = 1000, 2000
        # Resonant drive throughout: violations occur in warmup and after.
        currents = waveforms.square_wave(
            warmup + steady, analysis.resonant_period_cycles,
            amplitude_pp=60.0, mean=70.0,
        )
        supply, result = self._run_scripted(currents, warmup, steady)
        assert result.violation_cycles > 0
        # Before the fix this reported the warmup-era cycle (< warmup).
        assert supply.first_violation_cycle >= warmup


class TestMetrics:
    def make_result(self, **kwargs):
        defaults = dict(
            benchmark="x", technique="t", cycles=1000, instructions=2000,
            energy_joules=1e-6, phantom_energy_joules=0.0,
            violation_cycles=10, violation_events=2,
        )
        defaults.update(kwargs)
        return SimulationResult(**defaults)

    def test_derived_properties(self):
        result = self.make_result()
        assert result.ipc == 2.0
        assert result.violation_fraction == 0.01
        assert result.energy_per_instruction == pytest.approx(5e-10)

    def test_relative_metrics(self):
        base = self.make_result()
        slower = self.make_result(
            technique="slow", instructions=1000, energy_joules=1e-6
        )
        relative = slower.relative_to(base)
        assert relative.slowdown == pytest.approx(2.0)
        assert relative.energy == pytest.approx(2.0)
        assert relative.energy_delay == pytest.approx(4.0)

    def test_relative_requires_same_benchmark(self):
        base = self.make_result()
        other = self.make_result(benchmark="y")
        with pytest.raises(SimulationError):
            other.relative_to(base)

    def test_zero_instruction_guard(self):
        result = self.make_result(instructions=0)
        with pytest.raises(SimulationError):
            _ = result.energy_per_instruction


class TestRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return BenchmarkRunner(SweepConfig(n_cycles=5_000, warmup_cycles=500))

    def test_base_runs_are_cached(self, runner):
        first = runner.run_base("gzip")
        second = runner.run_base("gzip")
        assert first is second

    def test_compare_produces_relative_metrics(self, runner):
        metrics = runner.compare(
            "gzip", lambda s, p: ResonanceTuningController(s, p)
        )
        assert metrics.benchmark == "gzip"
        assert metrics.slowdown >= 0.9

    def test_sweep_aggregates(self, runner):
        seen = []
        summary = runner.sweep(
            lambda s, p: ResonanceTuningController(s, p),
            benchmarks=["gzip", "vpr"],
            progress=lambda name, metrics: seen.append(name),
        )
        assert seen == ["gzip", "vpr"]
        assert len(summary.per_benchmark) == 2
        assert summary.avg_slowdown >= 0.9
        assert summary.worst_benchmark in ("gzip", "vpr")

    def test_summarize_counts_over_15_percent(self):
        from repro.sim.metrics import RelativeMetrics

        rows = [
            RelativeMetrics("a", "t", 1.20, 1.0, 1.2, 0, 0),
            RelativeMetrics("b", "t", 1.05, 1.0, 1.05, 0, 0),
        ]
        summary = summarize(rows)
        assert summary.apps_over_15_percent == 1
        assert summary.worst_benchmark == "a"

    def test_summarize_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])


class TestSeedStatistics:
    def test_compare_seeds_aggregates(self):
        runner = BenchmarkRunner(SweepConfig(n_cycles=4_000, warmup_cycles=500))
        stats = runner.compare_seeds(
            "gzip",
            lambda s, p: ResonanceTuningController(s, p),
            n_seeds=2,
        )
        assert stats.n_seeds == 2
        assert len(stats.runs) == 2
        assert stats.mean_slowdown >= 0.9
        assert stats.std_slowdown >= 0.0
        # Different seeds generate different traces (stats rarely identical).
        assert stats.runs[0].slowdown != stats.runs[1].slowdown

    def test_compare_seeds_rejects_zero(self):
        runner = BenchmarkRunner(SweepConfig(n_cycles=2_000))
        with pytest.raises(ValueError):
            runner.compare_seeds("gzip", lambda s, p: NullController(), 0)

    def test_base_cache_keyed_by_seed(self):
        runner = BenchmarkRunner(SweepConfig(n_cycles=2_000, warmup_cycles=200))
        a = runner.run_base("gzip")
        b = runner.run_base("gzip", seed=123)
        assert a is not b
        assert a is runner.run_base("gzip")
        assert [key[:2] for key in runner.session.bases] == [
            ("gzip", None), ("gzip", 123),
        ]


class TestDeterminism:
    def test_identical_runs_produce_identical_results(self):
        def run():
            runner = BenchmarkRunner(
                SweepConfig(n_cycles=5_000, warmup_cycles=500)
            )
            return runner.compare(
                "swim", lambda s, p: ResonanceTuningController(s, p)
            )

        a = run()
        b = run()
        assert a.slowdown == b.slowdown
        assert a.energy == b.energy
        assert a.violation_fraction == b.violation_fraction
        assert a.first_level_fraction == b.first_level_fraction

    def test_recorded_traces_are_reproducible(self):
        def currents():
            simulation = build_simulation("parser", record=True)
            simulation.run(1_000)
            return simulation.currents

        assert currents() == currents()
