"""Band-wide resonant-event detection (Section 3.1).

Each cycle the detector appends the sensed current to the current-history
register and, for every quarter period ``q`` in the resonance band, compares
the sum of the most recent ``q`` cycles against the previous ``q`` cycles.
A difference of at least ``M q / 2`` (the paper's ``M T / 8`` with
``q = T/4``) flags a resonant event: *high-low* when current fell, *low-high*
when it rose.  Distinct half-periods sharing a quarter length share an adder,
so the Table 1 band (half-periods 42-59) needs only the quarter sums for
q = 21..29 -- the paper's "up to 9 current-history adders".

Events are recorded in per-polarity one-bit shift registers.  When a new
event occurs, the *resonant event count* is the length of the chain of
alternating-polarity events spaced half-periods apart ending at it
(Section 3.1.2), with events in consecutive cycles deduplicated as one
physical variation (Section 3.1.3).

Count semantics between events follow Section 5.1.2: the count reported by
:meth:`ResonanceDetector.current_count` holds while events keep arriving
within one half-period and "falls off" (to zero) when the high-low history
stops detecting events -- nascent resonance has broken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.core.history import CurrentHistoryRegister, EventHistoryRegister

__all__ = ["Polarity", "ResonantEvent", "ResonanceDetector", "COUNTER_CAP"]

#: Saturation value for the detector's event counters, mirroring a 31-bit
#: hardware counter: counts clamp here instead of growing without bound
#: (or, in hardware, wrapping to zero and losing the engagement history).
COUNTER_CAP = (1 << 31) - 1


class Polarity(IntEnum):
    """Direction of a resonant current transition."""

    HIGH_LOW = 0
    LOW_HIGH = 1

    @property
    def opposite(self) -> "Polarity":
        return Polarity.LOW_HIGH if self is Polarity.HIGH_LOW else Polarity.HIGH_LOW


@dataclass(frozen=True)
class ResonantEvent:
    """One detected resonant event and the chain ending at it."""

    cycle: int
    polarity: Polarity
    count: int
    chain_cycles: Tuple[int, ...]


class ResonanceDetector:
    """Detects nascent resonance from per-cycle sensed current."""

    def __init__(
        self,
        half_periods: Sequence[int],
        threshold_amps: float,
        max_repetition_tolerance: int,
        chain_window_slack: int = 4,
        quarter_periods: "Optional[Sequence[int]]" = None,
    ):
        if not half_periods:
            raise ConfigurationError("half_periods must be non-empty")
        if threshold_amps <= 0:
            raise ConfigurationError("threshold_amps must be positive")
        if max_repetition_tolerance < 2:
            raise ConfigurationError("max_repetition_tolerance must be at least 2")
        self.half_periods = sorted(set(int(h) for h in half_periods))
        if self.half_periods[0] < 2:
            raise ConfigurationError("half periods must be at least 2 cycles")
        self.threshold_amps = threshold_amps
        self.max_repetition_tolerance = max_repetition_tolerance
        if chain_window_slack < 0:
            raise ConfigurationError("chain_window_slack must be non-negative")
        self._h_min = self.half_periods[0]
        self._h_max = self.half_periods[-1]
        # Detection lags a transition by up to a quarter period, and the lag
        # is longer for a first event (the history must fill) than for later
        # ones.  A few cycles of slack on the near edge of the probe window
        # keeps such pairs chained.
        self._chain_slack = min(chain_window_slack, self._h_min - 1)
        #: one adder per distinct quarter period (with its MT/8 threshold);
        #: an explicit override lets alternative detectors (e.g. the dyadic
        #: wavelet scales of ref [11]) reuse the event/counting machinery
        if quarter_periods is None:
            self._quarters = sorted({h // 2 for h in self.half_periods})
        else:
            self._quarters = sorted({int(q) for q in quarter_periods})
            if self._quarters[0] < 1:
                raise ConfigurationError("quarter periods must be >= 1")
        #: (quarter period, MT/8 threshold) per adder, built once
        self._adders = tuple(
            (quarter, 0.5 * self.threshold_amps * quarter)
            for quarter in self._quarters
        )
        self._current_history = CurrentHistoryRegister(self._quarters[-1])
        register_length = max_repetition_tolerance * self._h_max
        self._histories = {
            Polarity.HIGH_LOW: EventHistoryRegister(register_length),
            Polarity.LOW_HIGH: EventHistoryRegister(register_length),
        }
        self.register_length = register_length
        self.last_event: Optional[ResonantEvent] = None
        self.total_events = 0
        #: per-polarity event counts (observability harvest; plain ints so
        #: the hot loop never touches the metrics registry)
        self.events_by_polarity = {
            Polarity.HIGH_LOW: 0, Polarity.LOW_HIGH: 0,
        }
        #: quarter-period comparisons actually performed (one per ready
        #: adder per cycle -- the hardware's comparator activity)
        self.comparisons = 0
        #: non-finite sensed samples survived (saturating diagnostic counter)
        self.nonfinite_samples = 0
        self._last_finite_amps = 0.0
        self._cycle = -1

    # ------------------------------------------------------------------
    def observe(self, cycle: int, sensed_current_amps: float) -> Optional[ResonantEvent]:
        """Feed one cycle of sensed current; returns a new event, if any.

        Must be called exactly once per cycle with consecutive cycle numbers.
        """
        self._cycle = cycle
        if not math.isfinite(sensed_current_amps):
            # A NaN inside the quarter-period sums would poison every adder
            # for a full history window; hold the last finite reading
            # instead (the hardware analogue of ignoring a parity-failed
            # report) and keep a saturating count of how often it happened.
            self.nonfinite_samples = min(self.nonfinite_samples + 1, COUNTER_CAP)
            sensed_current_amps = self._last_finite_amps
        else:
            self._last_finite_amps = sensed_current_amps
        history = self._current_history
        history.append(sensed_current_amps)

        polarity: Optional[Polarity] = None
        diffs = history.ready_quarter_diffs(self._quarters)
        # Thresholds grow with the quarter period, so no adder fires unless
        # some difference reaches the first one; most cycles stop here.
        lowest = self._adders[0][1]
        if diffs and (max(diffs) >= lowest or min(diffs) <= -lowest):
            best_magnitude = 0.0
            for diff, (quarter, threshold) in zip(diffs, self._adders):
                magnitude = abs(diff)
                if magnitude >= threshold and magnitude / quarter > best_magnitude:
                    best_magnitude = magnitude / quarter
                    polarity = Polarity.LOW_HIGH if diff > 0 else Polarity.HIGH_LOW

        self.comparisons = min(self.comparisons + len(diffs), COUNTER_CAP)
        self._histories[Polarity.HIGH_LOW].shift(
            cycle, polarity is Polarity.HIGH_LOW
        )
        self._histories[Polarity.LOW_HIGH].shift(
            cycle, polarity is Polarity.LOW_HIGH
        )
        if polarity is None:
            return None

        chain = self._trace_chain(cycle, polarity)
        event = ResonantEvent(
            cycle=cycle, polarity=polarity, count=len(chain),
            chain_cycles=tuple(chain),
        )
        self.last_event = event
        self.total_events = min(self.total_events + 1, COUNTER_CAP)
        self.events_by_polarity[polarity] = min(
            self.events_by_polarity[polarity] + 1, COUNTER_CAP
        )
        return event

    def _trace_chain(self, cycle: int, polarity: Polarity) -> List[int]:
        """Walk back through alternating-polarity events half-periods apart."""
        chain = [cycle]
        reference = cycle
        expected = polarity.opposite
        # Counting past the tolerance serves no purpose (the second-level
        # response engages below it), so cap the walk one above it.
        while len(chain) <= self.max_repetition_tolerance:
            register = self._histories[expected]
            found = register.latest_event_in(
                reference - self._h_max,
                reference - self._h_min + self._chain_slack,
            )
            if found is None:
                break
            # A run of consecutive event cycles is one physical variation
            # (Section 3.1.3): anchor the next window at the run's start so
            # a wide variation is not chained against itself.
            chain.append(found)
            reference = register.run_start(found)
            expected = expected.opposite
        return chain

    # ------------------------------------------------------------------
    def current_count(self, cycle: int) -> int:
        """The resonant event count as of ``cycle`` (Section 5.1.2 semantics).

        Holds the last event's chain count while events remain fresh (the
        last event is at most a half-period old and its chain members are
        still inside the shift registers); falls to zero once detection goes
        quiet for longer than the largest half-period.
        """
        event = self.last_event
        if event is None:
            return 0
        if cycle - event.cycle > self._h_max:
            return 0
        return sum(
            1 for c in event.chain_cycles if cycle - c < self.register_length
        )

    @property
    def band_half_period_range(self) -> Tuple[int, int]:
        return self._h_min, self._h_max

    @property
    def adder_count(self) -> int:
        """Number of quarter-period adders the hardware needs (Section 3.3)."""
        return len(self._quarters)
