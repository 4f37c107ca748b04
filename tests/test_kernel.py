"""Differential tests pinning the vectorized cycle kernel to the scalar path.

``repro.core.kernel`` promises bit-for-bit agreement with the per-cycle
``ResonanceDetector.observe`` / ``PowerSupply.step`` loops on exactly
representable traces (the dyadic sensor grid -- the same contract as
``repro.oracles.ReferenceDetector``).  Hypothesis drives both
implementations over fuzzed band configs, segmented traces, NaN drops and
mounted fault chains; any divergence is a real bug, never float noise.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import TABLE1_PROCESSOR, TABLE1_SUPPLY, TABLE1_TUNING
from repro.core import (
    CurrentSensor,
    NullController,
    ResonanceDetector,
    ResonanceTuningController,
    kernel_enabled,
    run_detector,
    run_supply,
    run_supply_batch,
)
from repro.core.kernel import KERNEL_ENV
from repro.errors import FaultError, SimulationError
from repro.faults import FaultySensor
from repro.power import PowerSupply
from repro.sim.simulation import Simulation, run_batch
from repro.uarch import SPEC2K, Processor

from tests.strategies import (
    band_configs,
    band_traces,
    fault_overlays,
    quantize_to_grid,
    supply_stimuli,
    underdamped_supply_configs,
)


# ----------------------------------------------------------------------
# Detector kernel vs scalar observe loop
# ----------------------------------------------------------------------
def _scalar_events(config, trace):
    detector = ResonanceDetector(**config)
    events = []
    for cycle, amps in enumerate(trace):
        event = detector.observe(cycle, float(amps))
        if event is not None:
            events.append(event)
    return detector, events


def _assert_kernel_matches_scalar(config, trace):
    scalar, expected = _scalar_events(config, trace)
    kernel = ResonanceDetector(**config)
    got = run_detector(kernel, [float(amps) for amps in trace])
    assert got == expected
    assert kernel.comparisons == scalar.comparisons
    assert kernel.total_events == scalar.total_events
    assert kernel.nonfinite_samples == scalar.nonfinite_samples
    assert kernel.events_by_polarity == scalar.events_by_polarity
    assert kernel.last_event == scalar.last_event
    assert kernel._last_finite_amps == scalar._last_finite_amps


class TestDetectorKernelDifferential:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_scalar_on_fuzzed_traces(self, data):
        """Fuzzed traces, including NaN drops (the hold-last-finite path)."""
        config = data.draw(band_configs())
        trace = data.draw(band_traces(config))
        _assert_kernel_matches_scalar(config, trace)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_under_fault_overlays(self, data):
        """Mounted fault chains (degraded inputs) must not split the pair."""
        config = data.draw(band_configs())
        trace = data.draw(band_traces(config, allow_nan=False))
        sensor = FaultySensor(data.draw(fault_overlays()), base=CurrentSensor())
        faulted = quantize_to_grid(
            np.asarray([sensor.read(float(x)) for x in trace])
        )
        _assert_kernel_matches_scalar(config, faulted)

    def test_all_nan_trace_holds_zero(self):
        config = {
            "half_periods": range(4, 8),
            "threshold_amps": 10.0,
            "max_repetition_tolerance": 3,
        }
        trace = [math.nan] * 60
        _assert_kernel_matches_scalar(config, trace)

    def test_empty_trace_is_a_no_op(self):
        detector = ResonanceDetector(
            half_periods=range(4, 8), threshold_amps=10.0,
            max_repetition_tolerance=3,
        )
        assert run_detector(detector, []) == []
        assert detector.comparisons == 0

    def test_requires_fresh_detector(self):
        detector = ResonanceDetector(
            half_periods=range(4, 8), threshold_amps=10.0,
            max_repetition_tolerance=3,
        )
        detector.observe(0, 10.0)
        with pytest.raises(SimulationError):
            run_detector(detector, [10.0, 10.0])

    def test_consumed_detector_rejects_stray_observe(self):
        detector = ResonanceDetector(
            half_periods=range(4, 8), threshold_amps=10.0,
            max_repetition_tolerance=3,
        )
        run_detector(detector, [10.0] * 40)
        with pytest.raises(SimulationError):
            detector.observe(40, 10.0)


# ----------------------------------------------------------------------
# Supply kernel vs scalar step loop
# ----------------------------------------------------------------------
def _supply_state(supply):
    state = supply._integrator.state
    return {
        "cycle": supply.cycle,
        "violation_cycles": supply.violation_cycles,
        "violation_events": supply.violation_events,
        "first_violation_cycle": supply.first_violation_cycle,
        "in_violation": supply._in_violation,
        "last_voltage": supply.last_voltage,
        "voltage": state.voltage,
        "inductor_current": state.inductor_current,
        "trace": None if supply.trace is None else (
            supply.trace.currents, supply.trace.voltages,
            supply.trace.violations,
        ),
    }


def _assert_supplies_agree(config, trace, substeps=1, initial=0.0):
    scalar = PowerSupply(
        config, initial_current=initial, record=True, substeps=substeps
    )
    kernel = PowerSupply(
        config, initial_current=initial, record=True, substeps=substeps
    )
    scalar_error = kernel_error = None
    scalar_volts = []
    try:
        for amps in trace:
            scalar_volts.append(scalar.step(float(amps)))
    except (FaultError, SimulationError) as exc:
        scalar_error = exc
    try:
        kernel_volts = run_supply(kernel, trace)
    except (FaultError, SimulationError) as exc:
        kernel_error = exc
        kernel_volts = None
    assert type(kernel_error) is type(scalar_error)
    if scalar_error is not None:
        assert str(kernel_error) == str(scalar_error)
    else:
        assert kernel_volts.tolist() == scalar_volts
    assert _supply_state(kernel) == _supply_state(scalar)


class TestSupplyKernelDifferential:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_step_loop_on_fuzzed_stimuli(self, data):
        config = data.draw(underdamped_supply_configs())
        trace = data.draw(supply_stimuli(config))
        substeps = data.draw(st.sampled_from([1, 1, 2, 3]))
        initial = data.draw(st.floats(0.0, 90.0))
        _assert_supplies_agree(config, trace, substeps, initial)

    def test_matches_on_table1_supply(self):
        rng = np.random.default_rng(7)
        trace = 60.0 + 30.0 * np.sin(0.06 * np.arange(3000)) + rng.normal(
            0.0, 4.0, 3000
        )
        _assert_supplies_agree(TABLE1_SUPPLY, trace, initial=60.0)

    def test_fault_error_at_exact_cycle(self):
        trace = [50.0] * 10 + [math.nan] + [50.0] * 5
        _assert_supplies_agree(TABLE1_SUPPLY, trace, initial=50.0)

    def test_divergence_error_matches(self):
        trace = [50.0, 1e308, 1e308, 1e308, 50.0]
        _assert_supplies_agree(TABLE1_SUPPLY, trace, initial=50.0)

    def test_sequential_runs_accumulate_like_step(self):
        """Back-to-back kernel calls must chain state exactly."""
        rng = np.random.default_rng(11)
        parts = [
            (70.0 + rng.normal(0.0, 5.0, 400)).tolist() for _ in range(3)
        ]
        scalar = PowerSupply(TABLE1_SUPPLY, initial_current=70.0, record=True)
        kernel = PowerSupply(TABLE1_SUPPLY, initial_current=70.0, record=True)
        for part in parts:
            for amps in part:
                scalar.step(amps)
            run_supply(kernel, part)
        assert _supply_state(kernel) == _supply_state(scalar)


class TestSupplyBatchKernel:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_every_lane_matches_its_own_scalar_run(self, data):
        config = data.draw(underdamped_supply_configs())
        n_lanes = data.draw(st.integers(2, 4))
        length = data.draw(st.integers(0, 200))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        traces = [
            (60.0 + rng.normal(0.0, 10.0, length)) for _ in range(n_lanes)
        ]
        substeps = [
            data.draw(st.sampled_from([1, 1, 1, 2])) for _ in range(n_lanes)
        ]
        batch = [
            PowerSupply(config, initial_current=60.0, record=True,
                        substeps=s)
            for s in substeps
        ]
        results = run_supply_batch(batch, traces)
        for lane in range(n_lanes):
            reference = PowerSupply(
                config, initial_current=60.0, record=True,
                substeps=substeps[lane],
            )
            expected = [reference.step(float(a)) for a in traces[lane]]
            assert results[lane].tolist() == expected
            assert _supply_state(batch[lane]) == _supply_state(reference)

    def test_faulty_lane_gets_its_scalar_error_others_survive(self):
        traces = [
            np.full(50, 60.0),
            np.concatenate([np.full(20, 60.0), [np.nan], np.full(29, 60.0)]),
            np.full(50, 65.0),
        ]
        batch = [
            PowerSupply(TABLE1_SUPPLY, initial_current=60.0) for _ in range(3)
        ]
        results = run_supply_batch(batch, traces)
        assert isinstance(results[0], np.ndarray)
        assert isinstance(results[1], FaultError)
        assert "cycle 20" in str(results[1])
        assert isinstance(results[2], np.ndarray)
        reference = PowerSupply(TABLE1_SUPPLY, initial_current=60.0)
        with pytest.raises(FaultError):
            for amps in traces[1]:
                reference.step(float(amps))
        assert _supply_state(batch[1]) == _supply_state(reference)

    def test_mismatched_lane_counts_rejected(self):
        with pytest.raises(SimulationError):
            run_supply_batch([PowerSupply(TABLE1_SUPPLY)], [])
        with pytest.raises(SimulationError):
            run_supply_batch(
                [PowerSupply(TABLE1_SUPPLY), PowerSupply(TABLE1_SUPPLY)],
                [np.zeros(4), np.zeros(5)],
            )


# ----------------------------------------------------------------------
# Simulation fast path vs scalar loop (REPRO_KERNEL=0)
# ----------------------------------------------------------------------
def _build_simulation(benchmark, controller, seed=None, record=True):
    processor = Processor.from_profile(
        SPEC2K[benchmark],
        n_instructions=30_000,
        config=TABLE1_PROCESSOR,
        supply_config=TABLE1_SUPPLY,
        seed=seed,
    )
    supply = PowerSupply(TABLE1_SUPPLY, initial_current=35.0)
    return Simulation(
        processor, supply, controller, record=record,
        benchmark=benchmark, warmup_cycles=120,
    )


def _fingerprint(result):
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


class TestSimulationFastPath:
    @pytest.mark.parametrize("bench", ["gzip", "swim"])
    def test_bit_identical_to_scalar_loop(self, bench, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "0")
        reference = _build_simulation(bench, NullController()).run(700)
        monkeypatch.setenv(KERNEL_ENV, "1")
        fast_sim = _build_simulation(bench, NullController())
        assert fast_sim.kernel_eligible()
        fast = fast_sim.run(700)
        assert _fingerprint(fast) == _fingerprint(reference)

    def test_feedback_controller_uses_scalar_loop(self):
        controller = ResonanceTuningController(
            TABLE1_SUPPLY, TABLE1_PROCESSOR, TABLE1_TUNING
        )
        sim = _build_simulation("gzip", controller)
        assert not sim.kernel_eligible()

    def test_env_gate_disables_kernel(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "0")
        assert not kernel_enabled()
        assert not _build_simulation("gzip", NullController()).kernel_eligible()
        monkeypatch.setenv(KERNEL_ENV, "1")
        assert kernel_enabled()

    def test_supply_subclass_uses_scalar_loop(self):
        class PatchedSupply(PowerSupply):
            pass

        processor = Processor.from_profile(
            SPEC2K["gzip"], n_instructions=30_000,
            config=TABLE1_PROCESSOR, supply_config=TABLE1_SUPPLY,
        )
        sim = Simulation(
            processor, PatchedSupply(TABLE1_SUPPLY), NullController(),
            benchmark="gzip", warmup_cycles=10,
        )
        assert not sim.kernel_eligible()


class TestRunBatch:
    def test_matches_individual_runs(self, monkeypatch):
        grid = [("gzip", None), ("swim", 3), ("lucas", None)]
        monkeypatch.setenv(KERNEL_ENV, "0")
        expected = [
            _fingerprint(
                _build_simulation(bench, NullController(), seed=seed).run(600)
            )
            for bench, seed in grid
        ]
        monkeypatch.setenv(KERNEL_ENV, "1")
        sims = [
            _build_simulation(bench, NullController(), seed=seed)
            for bench, seed in grid
        ]
        outcomes = run_batch(sims, 600)
        assert [_fingerprint(out) for out in outcomes] == expected

    def test_mixed_eligibility_falls_back_per_lane(self):
        tuned = ResonanceTuningController(
            TABLE1_SUPPLY, TABLE1_PROCESSOR, TABLE1_TUNING
        )
        sims = [
            _build_simulation("gzip", NullController()),
            _build_simulation("gzip", tuned),
        ]
        outcomes = run_batch(sims, 400)
        assert all(
            not isinstance(out, BaseException) and out is not None
            for out in outcomes
        )
        assert outcomes[1].technique == tuned.name

    def test_should_stop_leaves_remaining_lanes_fresh(self):
        sims = [
            _build_simulation("gzip", NullController()) for _ in range(3)
        ]
        calls = iter([False, True])
        outcomes = run_batch(sims, 400, should_stop=lambda: next(calls))
        assert outcomes[1] is None and outcomes[2] is None
        assert not sims[1]._ran and not sims[2]._ran

    def test_consumed_simulation_reports_error(self):
        sim = _build_simulation("gzip", NullController())
        sim.run(200)
        outcomes = run_batch([sim], 200)
        assert isinstance(outcomes[0], SimulationError)
