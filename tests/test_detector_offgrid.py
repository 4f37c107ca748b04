"""Detector exactness off the quantum grid.

The fault-overlay differentials in ``test_oracles.py`` and
``test_kernel.py`` snap the faulted stream back onto the dyadic grid
before observing it.  The fault-injection campaign does not: drift and
burst noise are added after the sensor's quantizer, so their readings
reach :meth:`ResonanceDetector.observe` off any grid, NaN drops included.
There, window sums round, and only an implementation performing the very
same float operations can agree bit for bit.

``PerQuarterDetector`` below is that implementation: ``observe`` as it
ran before the adders were folded into one pass, asking the history
register ``ready(q)`` and ``quarter_diff(q)`` once per quarter period,
recomputing each threshold per comparison, and walking event chains one
``has_event_at`` probe at a time.  It is built only from the public
history registers.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import TABLE1_SUPPLY, TABLE1_TUNING
from repro.core import CurrentSensor, ResonanceDetector
from repro.core.detector import COUNTER_CAP, Polarity, ResonantEvent
from repro.core.history import CurrentHistoryRegister, EventHistoryRegister
from repro.faults import BurstNoiseFault, DriftFault, FaultySensor
from repro.power import RLCAnalysis, waveforms

from tests.strategies import band_configs, band_traces, fault_overlays


class PerQuarterDetector:
    """Reference ``observe``: one ``ready``/``quarter_diff`` call per adder."""

    def __init__(self, half_periods, threshold_amps, max_repetition_tolerance,
                 chain_window_slack=4):
        self.half_periods = sorted(set(int(h) for h in half_periods))
        self.threshold_amps = threshold_amps
        self.max_repetition_tolerance = max_repetition_tolerance
        self._h_min = self.half_periods[0]
        self._h_max = self.half_periods[-1]
        self._chain_slack = min(chain_window_slack, self._h_min - 1)
        self._quarters = sorted({h // 2 for h in self.half_periods})
        self._history = CurrentHistoryRegister(self._quarters[-1])
        self.register_length = max_repetition_tolerance * self._h_max
        self._histories = {
            polarity: EventHistoryRegister(self.register_length)
            for polarity in Polarity
        }
        self.total_events = 0
        self.events_by_polarity = {Polarity.HIGH_LOW: 0, Polarity.LOW_HIGH: 0}
        self.comparisons = 0
        self.nonfinite_samples = 0
        self._last_finite_amps = 0.0

    def observe(self, cycle, sensed):
        if not math.isfinite(sensed):
            self.nonfinite_samples = min(self.nonfinite_samples + 1, COUNTER_CAP)
            sensed = self._last_finite_amps
        else:
            self._last_finite_amps = sensed
        history = self._history
        history.append(sensed)

        best_magnitude = 0.0
        polarity = None
        comparisons = 0
        for quarter in self._quarters:
            if not history.ready(quarter):
                continue
            comparisons += 1
            diff = history.quarter_diff(quarter)
            threshold = 0.5 * self.threshold_amps * quarter
            magnitude = abs(diff)
            if magnitude >= threshold and magnitude / quarter > best_magnitude:
                best_magnitude = magnitude / quarter
                polarity = Polarity.LOW_HIGH if diff > 0 else Polarity.HIGH_LOW

        self.comparisons = min(self.comparisons + comparisons, COUNTER_CAP)
        for register_polarity, register in self._histories.items():
            register.shift(cycle, polarity is register_polarity)
        if polarity is None:
            return None
        chain = self._trace_chain(cycle, polarity)
        self.total_events = min(self.total_events + 1, COUNTER_CAP)
        self.events_by_polarity[polarity] = min(
            self.events_by_polarity[polarity] + 1, COUNTER_CAP
        )
        return ResonantEvent(
            cycle=cycle, polarity=polarity, count=len(chain),
            chain_cycles=tuple(chain),
        )

    def _trace_chain(self, cycle, polarity):
        chain = [cycle]
        reference = cycle
        expected = polarity.opposite
        while len(chain) <= self.max_repetition_tolerance:
            register = self._histories[expected]
            found = register.latest_event_in(
                reference - self._h_max,
                reference - self._h_min + self._chain_slack,
            )
            if found is None:
                break
            chain.append(found)
            reference = found
            while reference > 0 and register.has_event_at(reference - 1):
                reference -= 1
            expected = expected.opposite
        return chain


def _assert_observe_matches_reference(config, stream):
    detector = ResonanceDetector(**config)
    reference = PerQuarterDetector(**config)
    for cycle, amps in enumerate(stream):
        fast = detector.observe(cycle, amps)
        slow = reference.observe(cycle, amps)
        assert fast == slow, f"cycle {cycle}: {fast!r} != {slow!r}"
    assert detector.total_events == reference.total_events
    assert detector.comparisons == reference.comparisons
    assert detector.events_by_polarity == reference.events_by_polarity
    assert detector.nonfinite_samples == reference.nonfinite_samples


@st.composite
def off_grid_faults(draw):
    """A fault that adds non-quantum offsets after the quantizer."""
    seed = draw(st.integers(0, 2**31 - 1))
    if draw(st.booleans()):
        return DriftFault(
            drift_amps_per_kilocycle=draw(st.floats(-20.0, 20.0).filter(bool)),
            max_offset_amps=draw(st.floats(0.5, 30.0)),
            seed=seed,
        )
    return BurstNoiseFault(
        amplitude_pp_amps=draw(st.floats(0.5, 20.0)),
        burst_probability=draw(st.floats(0.01, 0.2)),
        burst_length_cycles=draw(st.integers(5, 60)),
        seed=seed,
    )


class TestObserveOffGrid:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_unquantized_faulty_sensor_streams(self, data):
        config = data.draw(band_configs())
        trace = data.draw(band_traces(config, allow_nan=True))
        faults = data.draw(fault_overlays()) + [data.draw(off_grid_faults())]
        faults = data.draw(st.permutations(faults))
        sensor = FaultySensor(faults, base=CurrentSensor())
        stream = [sensor.read(float(amps)) for amps in trace]
        _assert_observe_matches_reference(config, stream)

    def test_table1_band_under_drift_and_bursts(self):
        """Deterministic anchor: the paper's band, threshold and tolerance."""
        sensor = FaultySensor(
            [
                DriftFault(drift_amps_per_kilocycle=3.7, max_offset_amps=9.3,
                           seed=5),
                BurstNoiseFault(amplitude_pp_amps=6.1, burst_probability=0.02,
                                burst_length_cycles=40, seed=6),
            ],
            base=CurrentSensor(),
        )
        rng = np.random.default_rng(7)
        wave = waveforms.square_wave(6000, 100, 40.0, mean=70.0)
        wave = wave + rng.uniform(-3.0, 3.0, wave.shape[0])
        wave[rng.integers(0, wave.shape[0], 12)] = math.nan
        stream = [sensor.read(float(amps)) for amps in wave]
        assert any(amps != round(amps) for amps in stream if math.isfinite(amps))
        _assert_observe_matches_reference(
            {
                "half_periods": RLCAnalysis(TABLE1_SUPPLY).band.half_periods,
                "threshold_amps": TABLE1_TUNING.resonant_current_threshold_amps,
                "max_repetition_tolerance": TABLE1_TUNING.max_repetition_tolerance,
            },
            stream,
        )
