"""Unit tests for the current sensor and the history registers."""

import random

import pytest

from repro.core import CurrentHistoryRegister, CurrentSensor, EventHistoryRegister
from repro.errors import ConfigurationError, SimulationError


class TestCurrentSensor:
    def test_quantizes_to_whole_amps(self):
        sensor = CurrentSensor(quantum_amps=1.0)
        assert sensor.read(70.4) == 70.0
        assert sensor.read(70.6) == 71.0

    def test_coarser_quantum(self):
        sensor = CurrentSensor(quantum_amps=5.0)
        assert sensor.read(72.0) == 70.0
        assert sensor.read(73.0) == 75.0

    def test_delay_shifts_readings(self):
        sensor = CurrentSensor(delay_cycles=2)
        assert sensor.read(10.0) == 10.0  # delay line still filling
        assert sensor.read(20.0) == 10.0
        assert sensor.read(30.0) == 10.0
        assert sensor.read(40.0) == 20.0

    def test_noise_is_bounded_and_seeded(self):
        a = CurrentSensor(noise_pp_amps=4.0, seed=1)
        b = CurrentSensor(noise_pp_amps=4.0, seed=1)
        readings_a = [a.read(70.0) for _ in range(200)]
        readings_b = [b.read(70.0) for _ in range(200)]
        assert readings_a == readings_b
        assert all(68.0 <= r <= 72.0 for r in readings_a)
        assert len(set(readings_a)) > 1

    def test_reset_clears_delay_line(self):
        sensor = CurrentSensor(delay_cycles=3)
        sensor.read(1.0)
        sensor.reset()
        assert sensor.read(9.0) == 9.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            CurrentSensor(quantum_amps=0.0)
        with pytest.raises(ConfigurationError):
            CurrentSensor(delay_cycles=-1)
        with pytest.raises(ConfigurationError):
            CurrentSensor(noise_pp_amps=-1.0)


class TestCurrentHistoryRegister:
    def test_quarter_diff_detects_step(self):
        register = CurrentHistoryRegister(max_quarter_period=8)
        for _ in range(8):
            register.append(10.0)
        for _ in range(8):
            register.append(50.0)
        # last 8 cycles at 50, previous 8 at 10: diff = 8 * 40
        assert register.quarter_diff(8) == pytest.approx(320.0)

    def test_flat_current_gives_zero_diff(self):
        register = CurrentHistoryRegister(max_quarter_period=10)
        for _ in range(40):
            register.append(70.0)
        for quarter in (1, 5, 10):
            assert register.quarter_diff(quarter) == pytest.approx(0.0)

    def test_falling_current_gives_negative_diff(self):
        register = CurrentHistoryRegister(max_quarter_period=4)
        for _ in range(4):
            register.append(90.0)
        for _ in range(4):
            register.append(30.0)
        assert register.quarter_diff(4) < 0

    def test_ready_guard(self):
        register = CurrentHistoryRegister(max_quarter_period=5)
        register.append(1.0)
        assert not register.ready(5)
        with pytest.raises(SimulationError):
            register.quarter_diff(5)

    def test_rejects_out_of_range_quarter(self):
        register = CurrentHistoryRegister(max_quarter_period=5)
        for _ in range(20):
            register.append(1.0)
        with pytest.raises(SimulationError):
            register.quarter_diff(6)
        with pytest.raises(SimulationError):
            register.quarter_diff(0)

    def test_long_stream_stays_consistent(self):
        """Ring-buffer wraparound must not corrupt sums."""
        register = CurrentHistoryRegister(max_quarter_period=8)
        for cycle in range(1000):
            register.append(float(cycle % 16 < 8) * 40.0)
        # The waveform has period 16 with quarter 4 aligned transitions.
        diffs = []
        for _ in range(32):
            register.append(0.0)
            diffs.append(register.quarter_diff(4))
        assert min(diffs) <= 0.0

    def test_long_trace_quarter_diff_stays_exact(self):
        """Regression: the running sum must not lose the window's bits.

        Before the re-anchoring + compensation fix, ``_cumsum`` grew
        without bound (sum of every current ever appended), so after a
        few hundred thousand cycles of ~100 A the window differences --
        small numbers computed as differences of huge ones -- were off
        by tens of thousands of ulps.  The fixed register must stay
        within 1 ulp *of the window's absolute current sum* (the
        smallest scale the subtraction can be carried out at) no matter
        how long the trace runs.
        """
        import math

        import numpy as np

        quarter = 8
        register = CurrentHistoryRegister(max_quarter_period=quarter)
        rng = np.random.default_rng(20260808)
        # Non-dyadic amplitudes around 100 A: every append carries
        # rounding pressure, and the old unbounded sum reaches ~4e7.
        trace = (100.0 + 7.3 * np.sin(0.21 * np.arange(400_000))
                 + rng.normal(0.0, 2.7, 400_000))
        window = []
        worst = 0.0
        for amps in trace.tolist():
            register.append(amps)
            window.append(amps)
            if len(window) > 2 * quarter:
                window.pop(0)
            if len(window) == 2 * quarter:
                exact = math.fsum(window[quarter:]) - math.fsum(
                    window[:quarter]
                )
                got = register.quarter_diff(quarter)
                scale = math.fsum(abs(value) for value in window)
                worst = max(worst, abs(got - exact) / np.spacing(scale))
        assert worst <= 1.0, f"worst error {worst:.2f} ulp of window scale"

    def test_long_trace_dyadic_quarter_diff_is_bit_exact(self):
        """Exactly representable traces stay bit-exact across wraps.

        The goldens feed whole-amp sensed currents; the precision fix
        must be an exact no-op there (compensation identically zero), so
        golden hashes cannot shift.
        """
        import math

        quarter = 6
        register = CurrentHistoryRegister(max_quarter_period=quarter)
        window = []
        for cycle in range(50_000):
            amps = float((cycle * 37) % 113)  # integer-valued, aperiodic
            register.append(amps)
            window.append(amps)
            if len(window) > 2 * quarter:
                window.pop(0)
            if len(window) == 2 * quarter:
                exact = math.fsum(window[quarter:]) - math.fsum(
                    window[:quarter]
                )
                assert register.quarter_diff(quarter) == exact


class TestEventHistoryRegister:
    def test_records_and_looks_up(self):
        register = EventHistoryRegister(length_cycles=16)
        for cycle in range(20):
            register.shift(cycle, event=(cycle in (3, 7, 18)))
        assert register.has_event_at(18)
        assert register.has_event_at(7)
        assert not register.has_event_at(6)

    def test_old_events_age_out(self):
        register = EventHistoryRegister(length_cycles=8)
        register.shift(0, True)
        for cycle in range(1, 10):
            register.shift(cycle, False)
        assert not register.has_event_at(0)

    def test_shift_must_be_consecutive(self):
        register = EventHistoryRegister(length_cycles=8)
        register.shift(0, False)
        with pytest.raises(SimulationError):
            register.shift(2, False)

    def test_latest_event_in_window(self):
        register = EventHistoryRegister(length_cycles=64)
        for cycle in range(40):
            register.shift(cycle, event=(cycle in (5, 10, 20)))
        assert register.latest_event_in(0, 15) == 10
        assert register.latest_event_in(11, 19) is None
        assert register.latest_event_in(0, 39) == 20

    def test_run_start_finds_beginning_of_run(self):
        register = EventHistoryRegister(length_cycles=64)
        for cycle in range(20):
            register.shift(cycle, event=(8 <= cycle <= 12))
        assert register.run_start(12) == 8
        assert register.run_start(8) == 8

    def test_run_start_matches_the_walk_back(self):
        # The register keeps each run's first cycle; a run older than the
        # horizon starts at the oldest cycle still held, as a walk back
        # through the bits finds.
        rng = random.Random(5)
        register = EventHistoryRegister(length_cycles=8)
        for cycle in range(400):
            register.shift(cycle, event=rng.random() < 0.8)
            for probe in range(max(0, cycle - 7), cycle + 1):
                if not register.has_event_at(probe):
                    continue
                start = probe
                while start > 0 and register.has_event_at(start - 1):
                    start -= 1
                assert register.run_start(probe) == start
        long_run = EventHistoryRegister(length_cycles=8)
        for cycle in range(20):
            long_run.shift(cycle, True)
        assert long_run.run_start(19) == 12

    def test_run_start_requires_event(self):
        register = EventHistoryRegister(length_cycles=64)
        register.shift(0, False)
        with pytest.raises(SimulationError):
            register.run_start(0)

    def test_rejects_bad_length(self):
        with pytest.raises(ConfigurationError):
            EventHistoryRegister(0)
