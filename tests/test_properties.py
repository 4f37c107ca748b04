"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PowerSupplyConfig, TABLE1_SUPPLY
from repro.core import (
    CurrentHistoryRegister,
    CurrentSensor,
    EventHistoryRegister,
    ResonanceDetector,
)
from repro.power import HeunIntegrator, PowerSupply, RLCAnalysis, waveforms
from repro.uarch import Pipeline, WorkloadProfile, generate_trace
from repro.config import ProcessorConfig


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
def underdamped_configs():
    """Random physically plausible underdamped supplies.

    Restricted to quality factors of at least 1 -- the regime the paper
    considers (its examples have Q of 2.8 and 6.3).  Below Q ~ 1 the
    impedance peak detaches from the natural frequency and the half-power
    band loses meaning.
    """
    return st.builds(
        PowerSupplyConfig,
        resistance_ohms=st.floats(1e-4, 1e-3),
        inductance_henries=st.floats(1e-12, 1e-11),
        capacitance_farads=st.floats(2e-7, 3e-6),
        vdd_volts=st.just(1.0),
        clock_hz=st.just(10e9),
    ).filter(lambda c: RLCAnalysis(c).quality_factor >= 1.0)


class TestRLCProperties:
    @given(underdamped_configs())
    @settings(max_examples=30, deadline=None)
    def test_band_brackets_resonant_frequency(self, config):
        analysis = RLCAnalysis(config)
        band = analysis.band
        assert band.low_hz < analysis.resonant_frequency_hz < band.high_hz
        assert 0 < analysis.dissipation_per_period < 1

    @given(underdamped_configs())
    @settings(max_examples=20, deadline=None)
    def test_impedance_peaks_inside_band(self, config):
        analysis = RLCAnalysis(config)
        f0 = analysis.resonant_frequency_hz
        frequencies = np.linspace(0.2 * f0, 5 * f0, 400)
        z = analysis.impedance_ohms(frequencies)
        peak_freq = frequencies[int(np.argmax(z))]
        band = analysis.band
        assert band.low_hz * 0.9 <= peak_freq <= band.high_hz * 1.1

    @given(underdamped_configs())
    @settings(max_examples=20, deadline=None)
    def test_band_period_ordering(self, config):
        band = RLCAnalysis(config).band
        assert 2 <= band.min_period_cycles <= band.max_period_cycles


class TestCircuitPhysicsProperties:
    @given(
        st.floats(5.0, 60.0),
        st.integers(0, 50),
    )
    @settings(max_examples=20, deadline=None)
    def test_free_ringing_energy_never_grows(self, kick_amps, settle):
        """With no drive, the stored circuit energy must decay (passivity)."""
        config = TABLE1_SUPPLY
        integrator = HeunIntegrator(config)
        integrator.reset(kick_amps)
        for _ in range(settle):
            integrator.step(kick_amps)
        # Cut the current to zero: the stored energy rings down.
        def energy():
            state = integrator.state
            return (
                0.5 * config.capacitance_farads * state.voltage**2
                + 0.5 * config.inductance_henries * state.inductor_current**2
            )

        integrator.step(0.0)
        previous = energy()
        for _ in range(300):
            integrator.step(0.0)
        assert energy() <= previous * 1.0001

    @given(st.floats(1.0, 30.0), st.floats(0.2, 3.0))
    @settings(max_examples=15, deadline=None)
    def test_supply_response_is_linear(self, amplitude, scale):
        """Scaling the stimulus scales the response (the circuit is LTI)."""
        analysis = RLCAnalysis(TABLE1_SUPPLY)
        wave = waveforms.square_wave(
            600, analysis.resonant_period_cycles, amplitude, mean=0.0
        )
        v1 = PowerSupply(TABLE1_SUPPLY).run(wave)
        v2 = PowerSupply(TABLE1_SUPPLY).run(scale * wave)
        assert np.allclose(scale * v1, v2, atol=1e-9 + 1e-6 * amplitude * scale)


class TestHistoryProperties:
    @given(
        st.lists(st.floats(0.0, 120.0), min_size=20, max_size=200),
        st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_quarter_diff_matches_bruteforce(self, stream, quarter):
        register = CurrentHistoryRegister(max_quarter_period=8)
        for value in stream:
            register.append(value)
        if len(stream) < 2 * quarter:
            return
        recent = sum(stream[-quarter:])
        previous = sum(stream[-2 * quarter : -quarter])
        assert register.quarter_diff(quarter) == pytest.approx(
            recent - previous, abs=1e-6
        )

    @given(
        st.lists(
            st.one_of(st.integers(0, 120).map(float), st.floats(0.0, 120.0)),
            min_size=1, max_size=300,
        ),
        st.lists(st.integers(1, 8), min_size=1, unique=True).map(sorted),
    )
    @settings(max_examples=80, deadline=None)
    def test_ready_quarter_diffs_match_quarter_diff(self, stream, quarters):
        """One-pass diffs equal per-quarter ``quarter_diff`` bit for bit.

        Whole-amp prefixes keep every addition exact; a later fractional
        sample makes the compensation terms nonzero mid-stream.
        """
        register = CurrentHistoryRegister(max_quarter_period=8)
        for value in stream:
            register.append(value)
            expected = [
                register.quarter_diff(q).hex()
                for q in quarters if register.ready(q)
            ]
            got = [diff.hex() for diff in register.ready_quarter_diffs(quarters)]
            assert got == expected

    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_event_history_matches_reference(self, bits):
        length = 64
        register = EventHistoryRegister(length_cycles=length)
        for cycle, bit in enumerate(bits):
            register.shift(cycle, bit)
        last = len(bits) - 1
        for cycle, bit in enumerate(bits):
            in_window = last - cycle < length
            assert register.has_event_at(cycle) == (bit and in_window)

    @given(
        st.lists(st.booleans(), min_size=5, max_size=120),
        st.integers(0, 119),
        st.integers(0, 119),
    )
    @settings(max_examples=40, deadline=None)
    def test_latest_event_in_window_is_correct(self, bits, a, b):
        start, end = min(a, b), max(a, b)
        register = EventHistoryRegister(length_cycles=256)
        for cycle, bit in enumerate(bits):
            register.shift(cycle, bit)
        expected = None
        for cycle in range(min(end, len(bits) - 1), start - 1, -1):
            if 0 <= cycle < len(bits) and bits[cycle]:
                expected = cycle
                break
        assert register.latest_event_in(start, end) == expected


class TestSensorProperties:
    @given(
        st.floats(0.0, 200.0),
        st.floats(0.25, 5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_quantization_error_bounded(self, current, quantum):
        sensor = CurrentSensor(quantum_amps=quantum)
        reading = sensor.read(current)
        assert abs(reading - current) <= quantum / 2 + 1e-9

    @given(st.lists(st.floats(0.0, 150.0), min_size=5, max_size=60),
           st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_delayed_reading_is_a_past_value(self, stream, delay):
        sensor = CurrentSensor(delay_cycles=delay)
        readings = [sensor.read(v) for v in stream]
        for index in range(delay, len(stream)):
            expected = stream[index - delay]
            assert readings[index] == pytest.approx(round(expected), abs=0.51)


class TestDetectorProperties:
    @given(st.floats(20.0, 110.0), st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_flat_current_never_triggers(self, level, tolerance):
        detector = ResonanceDetector(range(42, 60), 26.0, tolerance)
        for cycle in range(300):
            assert detector.observe(cycle, level) is None

    @given(st.integers(2, 6), st.floats(30.0, 60.0))
    @settings(max_examples=15, deadline=None)
    def test_count_never_exceeds_tolerance_plus_one(self, tolerance, amplitude):
        detector = ResonanceDetector(range(42, 60), 26.0, tolerance)
        wave = waveforms.square_wave(1200, 100, amplitude, mean=70.0)
        max_count = 0
        for cycle, current in enumerate(wave):
            event = detector.observe(cycle, current)
            if event is not None:
                max_count = max(max_count, event.count)
        assert max_count <= tolerance + 1


class TestTraceProperties:
    @given(
        st.floats(0.05, 0.35),
        st.floats(0.0, 0.15),
        st.floats(1.0, 15.0),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_generated_traces_are_well_formed(
        self, frac_load, frac_store, dep, seed
    ):
        profile = WorkloadProfile(
            name="prop",
            frac_load=frac_load,
            frac_store=frac_store,
            frac_branch=0.1,
            mean_dep_distance=dep,
            seed=seed,
        )
        trace = generate_trace(profile, 2000)
        indices = np.arange(len(trace))
        assert np.all(trace.dep1 >= 0)
        assert np.all(trace.dep1 <= indices)
        assert np.all(trace.dep2 <= indices)
        assert np.all((trace.op_class >= 0) & (trace.op_class <= 6))


class TestPipelineProperties:
    @given(st.integers(0, 2**31 - 1), st.floats(2.0, 12.0))
    @settings(max_examples=10, deadline=None)
    def test_pipeline_invariants_hold(self, seed, dep):
        profile = WorkloadProfile(name="prop", mean_dep_distance=dep, seed=seed)
        trace = generate_trace(profile, 8000)
        config = ProcessorConfig()
        pipeline = Pipeline(trace, config)
        for _ in range(600):
            stats = pipeline.step()
            assert 0 <= stats.issued <= config.issue_width
            assert 0 <= stats.committed <= config.commit_width
            assert 0 <= stats.rob_occupancy <= config.rob_entries
            assert stats.current_amps >= config.min_current_amps - 1e-9
            assert stats.current_amps <= config.max_current_amps * 1.05
        assert pipeline.total_committed <= pipeline.seq_dispatch
        assert pipeline.ipc <= config.issue_width
