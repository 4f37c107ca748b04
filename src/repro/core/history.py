"""History registers for resonant-event detection (Section 3.1).

Two small hardware-like structures:

* :class:`CurrentHistoryRegister` -- the per-cycle current history over the
  last half of the longest band period, kept as a running cumulative sum so
  each quarter-period comparison is O(1) (the paper's "current-history
  adders").
* :class:`EventHistoryRegister` -- a one-bit-per-cycle shift register of
  detected resonant events of one polarity (the paper's high-low and
  low-high histories), long enough to cover the maximum repetition
  tolerance.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, SimulationError

__all__ = ["CurrentHistoryRegister", "EventHistoryRegister"]


class CurrentHistoryRegister:
    """Running cumulative current sums over a sliding cycle window.

    ``quarter_diff(q)`` returns ``sum(last q cycles) - sum(previous q
    cycles)``: positive when current rose (a low-to-high transition),
    negative when it fell.

    The ring stores running cumulative sums, so after millions of cycles
    at tens of amps an unbounded total would dwarf any quarter-period
    window and ``quarter_diff``'s cancellation would eat the low bits.
    Two measures keep the comparison at window precision forever:

    * every time the ring wraps, the oldest retained cumulative value is
      subtracted from every slot (*re-anchoring*), so stored magnitudes
      stay at window scale rather than trace scale;
    * each slot carries a Neumaier compensation term absorbing the
      rounding of its append (and of the re-anchor subtraction), and
      ``quarter_diff`` folds the compensation differences back in.

    Both are exact no-ops on exactly representable traces (e.g. the
    dyadic sensor grid the conformance goldens use): every addition is
    then exact, the compensation terms stay identically zero, and the
    returned bits match the plain running-sum implementation.
    """

    def __init__(self, max_quarter_period: int):
        if max_quarter_period < 1:
            raise ConfigurationError("max_quarter_period must be at least 1")
        self.max_quarter_period = max_quarter_period
        size = 1
        while size < 2 * max_quarter_period + 1:
            size *= 2
        self._size = size
        self._mask = size - 1
        self._cumsum = [0.0] * size
        self._comp = [0.0] * size
        self._cycles_seen = 0

    def append(self, current_amps: float) -> None:
        """Record one cycle's sensed current."""
        index = self._cycles_seen & self._mask
        if index == 0 and self._cycles_seen:
            self._reanchor()
        previous_index = (self._cycles_seen - 1) & self._mask
        previous = self._cumsum[previous_index]
        total = previous + current_amps
        # TwoSum error term of ``previous + current_amps`` (exact under
        # round-to-nearest); zero whenever the addition was exact.
        if (previous if previous >= 0.0 else -previous) >= (
            current_amps if current_amps >= 0.0 else -current_amps
        ):
            error = (previous - total) + current_amps
        else:
            error = (current_amps - total) + previous
        self._cumsum[index] = total
        self._comp[index] = self._comp[previous_index] + error
        self._cycles_seen += 1

    def _reanchor(self) -> None:
        """Subtract the oldest retained cumulative value from every slot.

        Runs once per ring wrap (amortized O(1) per append), right before
        slot 0 -- the oldest value, deterministically -- is overwritten.
        Differences between slots are untouched, so ``quarter_diff`` is
        unaffected except that stored magnitudes drop back to window
        scale; each slot's subtraction rounding goes to its compensation
        term, and is zero when the subtraction was exact.
        """
        anchor = self._cumsum[0]
        if anchor == 0.0:
            return
        cumsum, comp = self._cumsum, self._comp
        abs_anchor = anchor if anchor >= 0.0 else -anchor
        for slot in range(self._size):
            value = cumsum[slot]
            shifted = value - anchor
            if (value if value >= 0.0 else -value) >= abs_anchor:
                error = (value - shifted) - anchor
            else:
                error = ((-anchor) - shifted) + value
            cumsum[slot] = shifted
            comp[slot] += error

    @property
    def cycles_seen(self) -> int:
        return self._cycles_seen

    def ready(self, quarter_period: int) -> bool:
        """True once enough history exists to compare two quarter periods."""
        return self._cycles_seen >= 2 * quarter_period

    def quarter_diff(self, quarter_period: int) -> float:
        """Difference between the two most recent quarter-period sums."""
        if quarter_period < 1 or quarter_period > self.max_quarter_period:
            raise SimulationError(
                f"quarter period {quarter_period} outside register range"
            )
        if not self.ready(quarter_period):
            raise SimulationError("insufficient history for this quarter period")
        newest = (self._cycles_seen - 1) & self._mask
        mid = (self._cycles_seen - 1 - quarter_period) & self._mask
        oldest = (self._cycles_seen - 1 - 2 * quarter_period) & self._mask
        base = (
            self._cumsum[newest]
            - 2.0 * self._cumsum[mid]
            + self._cumsum[oldest]
        )
        correction = (
            self._comp[newest]
            - 2.0 * self._comp[mid]
            + self._comp[oldest]
        )
        # ``correction`` is identically 0.0 on exactly representable
        # traces, leaving ``base`` bit-for-bit unchanged there.
        return base + correction

    def ready_quarter_diffs(self, quarter_periods) -> "list[float]":
        """``quarter_diff`` of each ready quarter period, in one pass.

        ``quarter_periods`` must be ascending and within the register's
        range.  Readiness grows with the period, so the ready ones are a
        prefix: the result holds one difference for each period of that
        prefix, in order, and stops at the first period still short of
        history.  Each value is computed by ``quarter_diff``'s exact
        expression, so the two agree bit for bit.  This is the detector's
        per-cycle path: one call serves every adder.
        """
        if quarter_periods and not (
            1 <= quarter_periods[0] and quarter_periods[-1] <= self.max_quarter_period
        ):
            raise SimulationError(
                f"quarter periods {quarter_periods!r} outside register range"
            )
        cumsum, comp, mask = self._cumsum, self._comp, self._mask
        newest = self._cycles_seen - 1
        sum_newest = cumsum[newest & mask]
        comp_newest = comp[newest & mask]
        diffs = []
        for quarter in quarter_periods:
            oldest = newest - 2 * quarter
            if oldest < -1:
                break  # fewer than 2 * quarter cycles seen
            mid = (newest - quarter) & mask
            oldest &= mask
            base = sum_newest - 2.0 * cumsum[mid] + cumsum[oldest]
            correction = comp_newest - 2.0 * comp[mid] + comp[oldest]
            diffs.append(base + correction)
        return diffs


class EventHistoryRegister:
    """One-bit-per-cycle shift register of resonant events of one polarity.

    Beside each event bit it keeps the first cycle of the consecutive-event
    run the bit belongs to, so :meth:`run_start` is O(1) however long the
    run (``core.kernel.run_detector`` derives the same starts vectorized).
    """

    def __init__(self, length_cycles: int):
        if length_cycles < 1:
            raise ConfigurationError("length_cycles must be at least 1")
        self.length_cycles = length_cycles
        size = 1
        while size < length_cycles + 1:
            size *= 2
        self._mask = size - 1
        self._bits = bytearray(size)
        self._run_starts = [0] * size
        self._cycle = -1

    def shift(self, cycle: int, event: bool) -> None:
        """Record this cycle's event bit (must be called every cycle)."""
        if cycle != self._cycle + 1:
            raise SimulationError(
                f"event history must shift every cycle (got {cycle}, "
                f"expected {self._cycle + 1})"
            )
        index = cycle & self._mask
        if event:
            previous = (cycle - 1) & self._mask
            self._run_starts[index] = (
                self._run_starts[previous]
                if cycle and self._bits[previous] else cycle
            )
        self._bits[index] = 1 if event else 0
        self._cycle = cycle

    def has_event_at(self, cycle: int) -> bool:
        """Was an event recorded at ``cycle`` (and is it still in range)?"""
        if cycle < 0 or cycle > self._cycle:
            return False
        if self._cycle - cycle >= self.length_cycles:
            return False
        return bool(self._bits[cycle & self._mask])

    def latest_event_in(self, start_cycle: int, end_cycle: int) -> "int | None":
        """Most recent event cycle within ``[start_cycle, end_cycle]``."""
        lo = max(start_cycle, self._cycle - self.length_cycles + 1, 0)
        for cycle in range(min(end_cycle, self._cycle), lo - 1, -1):
            if self._bits[cycle & self._mask]:
                return cycle
        return None

    def run_start(self, cycle: int) -> int:
        """First cycle of the consecutive-event run containing ``cycle``.

        Events in consecutive cycles are one physical variation spanning
        several cycles and must count only once (Section 3.1.3); counting
        code uses the run's start as the event's canonical cycle.  A run
        older than the register's horizon starts, as far as the register
        can tell, at the oldest cycle it still holds.
        """
        if not self.has_event_at(cycle):
            raise SimulationError(f"no event at cycle {cycle}")
        return max(
            self._run_starts[cycle & self._mask],
            self._cycle - self.length_cycles + 1,
        )
