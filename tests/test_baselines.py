"""Tests for the compared techniques: voltage threshold [10] and damping [14]."""

import pytest

from repro.config import TABLE1_PROCESSOR, TABLE1_SUPPLY
from repro.baselines import PipelineDampingController, VoltageThresholdController
from repro.errors import ConfigurationError
from repro.sim import BenchmarkRunner, SweepConfig
from repro.uarch.pipeline import CycleStats


def make_stats(cycle, estimate=0.0, phantom=0.0):
    return CycleStats(
        cycle=cycle,
        current_amps=70.0,
        phantom_amps=phantom,
        dispatched=0,
        issued=0,
        committed=0,
        issued_estimate_amps=estimate,
        rob_occupancy=0,
    )


class TestVoltageThresholdUnit:
    def test_actual_threshold_degraded_by_noise(self):
        controller = VoltageThresholdController(
            TABLE1_SUPPLY, TABLE1_PROCESSOR,
            target_threshold_volts=0.030, sensor_noise_pp_volts=0.015,
        )
        assert controller.actual_threshold_volts == pytest.approx(0.0225)

    def test_rejects_threshold_swallowed_by_noise(self):
        with pytest.raises(ConfigurationError):
            VoltageThresholdController(
                TABLE1_SUPPLY, TABLE1_PROCESSOR,
                target_threshold_volts=0.010, sensor_noise_pp_volts=0.025,
            )

    def test_rejects_bad_hold_and_delay(self):
        with pytest.raises(ConfigurationError):
            VoltageThresholdController(
                TABLE1_SUPPLY, TABLE1_PROCESSOR, delay_cycles=-1
            )
        with pytest.raises(ConfigurationError):
            VoltageThresholdController(
                TABLE1_SUPPLY, TABLE1_PROCESSOR, hold_cycles=0
            )

    def test_low_voltage_stalls(self):
        controller = VoltageThresholdController(
            TABLE1_SUPPLY, TABLE1_PROCESSOR, target_threshold_volts=0.030
        )
        controller.observe(0, 90.0, -0.040)
        directives = controller.directives(1)
        assert directives.stall_issue and directives.stall_fetch

    def test_high_voltage_phantom_fires(self):
        controller = VoltageThresholdController(
            TABLE1_SUPPLY, TABLE1_PROCESSOR, target_threshold_volts=0.030
        )
        controller.observe(0, 40.0, 0.040)
        directives = controller.directives(1)
        assert directives.current_floor_amps > 0
        assert not directives.stall_issue

    def test_inside_threshold_no_response_after_hold(self):
        controller = VoltageThresholdController(
            TABLE1_SUPPLY, TABLE1_PROCESSOR,
            target_threshold_volts=0.030, hold_cycles=2,
        )
        controller.observe(0, 90.0, -0.040)
        assert controller.directives(1).stall_issue
        for cycle in range(1, 6):
            controller.observe(cycle, 70.0, 0.0)
        assert not controller.directives(6).stall_issue

    def test_hold_keeps_response_active(self):
        controller = VoltageThresholdController(
            TABLE1_SUPPLY, TABLE1_PROCESSOR,
            target_threshold_volts=0.030, hold_cycles=8,
        )
        controller.observe(0, 90.0, -0.040)
        controller.observe(1, 70.0, 0.0)  # back inside threshold
        assert controller.directives(2).stall_issue  # still held

    def test_delay_shifts_reaction(self):
        controller = VoltageThresholdController(
            TABLE1_SUPPLY, TABLE1_PROCESSOR,
            target_threshold_volts=0.030, delay_cycles=3,
        )
        controller.observe(0, 90.0, -0.040)
        assert not controller.directives(1).stall_issue  # not seen yet
        for cycle in range(1, 4):
            controller.observe(cycle, 70.0, 0.0)
        assert controller.directives(4).stall_issue  # delayed reading arrives

    def test_response_counted_as_second_level(self):
        controller = VoltageThresholdController(TABLE1_SUPPLY, TABLE1_PROCESSOR)
        controller.observe(0, 90.0, -0.040)
        controller.directives(1)
        fractions = controller.response_cycle_fractions
        assert fractions["second_level_cycles"] == 1
        assert fractions["first_level_cycles"] == 0


class TestPipelineDampingUnit:
    def test_rejects_bad_delta(self):
        with pytest.raises(ConfigurationError):
            PipelineDampingController(TABLE1_SUPPLY, TABLE1_PROCESSOR, 0.0)

    def test_window_defaults_to_half_resonant_period(self):
        controller = PipelineDampingController(
            TABLE1_SUPPLY, TABLE1_PROCESSOR, 26.0
        )
        assert controller.window_cycles == 50

    def test_requires_stats(self):
        controller = PipelineDampingController(
            TABLE1_SUPPLY, TABLE1_PROCESSOR, 26.0
        )
        with pytest.raises(ConfigurationError):
            controller.observe(0, 70.0, 0.0, stats=None)

    def test_no_bounds_until_window_seeded(self):
        controller = PipelineDampingController(
            TABLE1_SUPPLY, TABLE1_PROCESSOR, 26.0
        )
        assert controller.directives(0).issue_estimate_bounds is None

    def test_bounds_track_window_extremes(self):
        controller = PipelineDampingController(
            TABLE1_SUPPLY, TABLE1_PROCESSOR, delta_amps=10.0, window_cycles=4
        )
        for cycle, estimate in enumerate([20.0, 25.0, 30.0]):
            controller.observe(cycle, 70.0, 0.0, make_stats(cycle, estimate))
        low, high = controller.directives(3).issue_estimate_bounds
        assert low == pytest.approx(30.0 - 10.0)
        assert high == pytest.approx(20.0 + 10.0)

    def test_lower_bound_clamped_at_zero(self):
        controller = PipelineDampingController(
            TABLE1_SUPPLY, TABLE1_PROCESSOR, delta_amps=50.0, window_cycles=4
        )
        controller.observe(0, 70.0, 0.0, make_stats(0, 5.0))
        low, _ = controller.directives(1).issue_estimate_bounds
        assert low == 0.0


class TestBaselinesClosedLoop:
    @pytest.fixture(scope="class")
    def runner(self):
        return BenchmarkRunner(SweepConfig(n_cycles=40_000))

    def test_ideal_voltage_threshold_eliminates_violations(self, runner):
        base = runner.run_base("swim")
        assert base.violation_cycles > 0
        metrics = runner.compare(
            "swim",
            lambda s, p: VoltageThresholdController(
                s, p, target_threshold_volts=0.030
            ),
        )
        assert metrics.violation_fraction == 0.0
        assert metrics.slowdown < 1.10

    def test_noise_and_delay_degrade_voltage_threshold(self, runner):
        """The paper's core critique of [10] (Table 4's bottom rows)."""
        ideal = runner.compare(
            "swim",
            lambda s, p: VoltageThresholdController(s, p, 0.030, 0.0, 0),
        )
        realistic = runner.compare(
            "swim",
            lambda s, p: VoltageThresholdController(s, p, 0.020, 0.015, 3),
        )
        assert realistic.slowdown > ideal.slowdown
        assert realistic.energy_delay > ideal.energy_delay

    def test_loose_damping_misses_band_violations(self, runner):
        """Damping at delta = threshold covers only the resonant frequency;
        variations elsewhere in the band still violate (Section 5.3.2)."""
        metrics = runner.compare(
            "swim",
            lambda s, p: PipelineDampingController(s, p, delta_amps=26.0),
        )
        assert metrics.violation_fraction > 0

    def test_tight_damping_eliminates_but_costs(self, runner):
        loose = runner.compare(
            "swim", lambda s, p: PipelineDampingController(s, p, 13.0)
        )
        tight = runner.compare(
            "swim", lambda s, p: PipelineDampingController(s, p, 6.5)
        )
        assert tight.violation_fraction == 0.0
        assert tight.slowdown > loose.slowdown

    def test_damping_costs_rise_as_delta_tightens(self, runner):
        slowdowns = []
        for delta in (26.0, 13.0, 6.5):
            metrics = runner.compare(
                "bzip", lambda s, p, d=delta: PipelineDampingController(s, p, d)
            )
            slowdowns.append(metrics.slowdown)
        assert slowdowns[0] <= slowdowns[1] <= slowdowns[2]


class TestMultiWindowDamping:
    def test_accepts_window_sequence(self):
        controller = PipelineDampingController(
            TABLE1_SUPPLY, TABLE1_PROCESSOR, 26.0, (42, 50, 59)
        )
        assert controller.window_lengths == (42, 50, 59)
        assert controller.window_cycles == 59

    def test_duplicate_windows_collapse(self):
        controller = PipelineDampingController(
            TABLE1_SUPPLY, TABLE1_PROCESSOR, 26.0, (50, 50, 42)
        )
        assert controller.window_lengths == (42, 50)

    def test_rejects_tiny_windows(self):
        import pytest as _pytest
        with _pytest.raises(ConfigurationError):
            PipelineDampingController(TABLE1_SUPPLY, TABLE1_PROCESSOR, 26.0, (1,))
        with _pytest.raises(ConfigurationError):
            PipelineDampingController(TABLE1_SUPPLY, TABLE1_PROCESSOR, 26.0, ())

    def test_bounds_are_intersection(self):
        controller = PipelineDampingController(
            TABLE1_SUPPLY, TABLE1_PROCESSOR, delta_amps=10.0,
            window_cycles=(2, 4),
        )
        # Estimates 30, 5, 20: short window sees (5, 20), long (30, 5, 20).
        for cycle, estimate in enumerate([30.0, 5.0, 20.0]):
            controller.observe(cycle, 70.0, 0.0, make_stats(cycle, estimate))
        low, high = controller.directives(3).issue_estimate_bounds
        assert low == pytest.approx(30.0 - 10.0)   # long window max binds
        assert high == pytest.approx(5.0 + 10.0)   # both see min 5

    def test_multiwindow_no_better_than_single_at_equal_delta(self):
        """The negative result: band coverage of the estimate is not the
        leak at delta = 1x (see the multiwindow-damping experiment)."""
        runner = BenchmarkRunner(SweepConfig(n_cycles=15_000))
        single = runner.compare(
            "swim",
            lambda s, p: PipelineDampingController(s, p, 26.0, 50),
        )
        multi = runner.compare(
            "swim",
            lambda s, p: PipelineDampingController(s, p, 26.0, (42, 50, 59)),
        )
        assert multi.violation_fraction >= 0.3 * single.violation_fraction
