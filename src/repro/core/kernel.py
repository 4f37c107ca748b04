"""Vectorized cycle-kernel hot path (ROADMAP item 1).

The scalar simulation advances one cycle at a time through
``PowerSupply.step`` and ``ResonanceDetector.observe``.  This module
advances *whole traces* per call:

* :func:`run_supply` -- the Heun recurrence of ``power/integrator.py``
  with every per-cycle attribute lookup hoisted out of the loop, plus a
  vectorized post-pass for the violation bookkeeping.  The recurrence is
  serial in time (each cycle's state feeds the next), so it cannot be
  time-vectorized without changing float rounding; the win here is pure
  interpreter overhead removal, and the result is **bit-identical** to
  ``PowerSupply.step`` cycle by cycle.
* :func:`run_supply_batch` -- the same recurrence advanced for several
  independent traces (lanes) at once with NumPy elementwise ops.
  IEEE-754 elementwise arithmetic matches scalar arithmetic exactly, so
  every lane is bit-identical to its own scalar run.
* :func:`run_detector` -- the quarter-period window comparisons of
  ``core/detector.py`` as ``np.cumsum``-based whole-trace differences,
  with event extraction and chain tracing only on the sparse event
  cycles.  ``np.cumsum`` accumulates sequentially, so the window sums
  carry exactly the same rounding as the scalar
  ``CurrentHistoryRegister`` on exactly representable traces (the same
  equivalence contract as ``repro.oracles.ReferenceDetector``; the
  conformance goldens and the Hypothesis differential fuzz in
  ``tests/test_kernel.py`` hold it to bit-for-bit agreement there).

Only a plain :class:`~repro.power.supply.PowerSupply` advances on the
kernel: :func:`run_supply` steps any other supply (a subclass or an
overlay wrapping one may change ``step``), so every caller that advances
a supply over a trace gets the kernel-or-step choice from this one place.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.errors import FaultError, SimulationError
from repro.core.detector import (
    COUNTER_CAP,
    Polarity,
    ResonanceDetector,
    ResonantEvent,
)
from repro.power.supply import PowerSupply

__all__ = [
    "advances_on_kernel",
    "run_detector",
    "run_supply",
    "run_supply_batch",
]


# ----------------------------------------------------------------------
# Detector kernel
# ----------------------------------------------------------------------
def run_detector(
    detector: ResonanceDetector, samples: Sequence[float]
) -> List[ResonantEvent]:
    """Advance a *fresh* detector over a whole sensed-current trace.

    Returns the events the scalar ``observe`` loop would have returned,
    in cycle order, and leaves the detector's public counters
    (``comparisons``, ``total_events``, ``events_by_polarity``,
    ``nonfinite_samples``, ``last_event``) exactly as that loop would.
    The internal shift registers are *not* replayed -- a subsequent
    ``observe`` call on the consumed detector raises ``SimulationError``
    rather than silently diverging.

    Bit-equivalence contract: identical to the scalar path whenever the
    trace is exactly representable (every sample and every windowed sum
    exact in float64 -- e.g. the dyadic sensor grid), the same contract
    ``repro.oracles.ReferenceDetector`` documents.
    """
    if detector._cycle != -1:
        raise SimulationError(
            "run_detector requires a freshly constructed detector "
            f"(already observed through cycle {detector._cycle})"
        )
    x = np.asarray(samples, dtype=float)
    n_cycles = x.shape[0]
    if n_cycles == 0:
        return []

    # Non-finite samples hold the last finite reading (0.0 before any),
    # mirroring ``observe``'s ``_last_finite_amps`` semantics.
    finite = np.isfinite(x)
    nonfinite = int(n_cycles - np.count_nonzero(finite))
    if nonfinite:
        last_idx = np.where(finite, np.arange(n_cycles), -1)
        np.maximum.accumulate(last_idx, out=last_idx)
        held = np.where(last_idx >= 0, x[np.maximum(last_idx, 0)], 0.0)
    else:
        held = x

    # Prefix sums with a leading zero: S[t + 1] is the cumulative sensed
    # current through cycle t, accumulated sequentially exactly like the
    # scalar CurrentHistoryRegister.
    prefix = np.empty(n_cycles + 1, dtype=float)
    prefix[0] = 0.0
    np.cumsum(held, out=prefix[1:])

    # Best qualifying quarter per cycle, scanned in ascending quarter
    # order with a strictly-greater test so ties resolve to the smallest
    # quarter -- the scalar loop's behavior.
    best_norm = np.zeros(n_cycles, dtype=float)
    best_code = np.zeros(n_cycles, dtype=np.int8)  # 0 none, 1 HL, 2 LH
    comparisons = 0
    threshold_amps = detector.threshold_amps
    for quarter in detector._quarters:
        first = 2 * quarter - 1  # first cycle with 2q samples of history
        if first >= n_cycles:
            continue
        comparisons += n_cycles - first
        diff = (
            prefix[2 * quarter:]
            - 2.0 * prefix[quarter:n_cycles + 1 - quarter]
            + prefix[:n_cycles + 1 - 2 * quarter]
        )
        threshold = 0.5 * threshold_amps * quarter
        magnitude = np.abs(diff)
        norm = magnitude / quarter
        better = (magnitude >= threshold) & (norm > best_norm[first:])
        best_norm[first:][better] = norm[better]
        best_code[first:][better] = np.where(diff[better] > 0, 2, 1)

    event_cycles = np.nonzero(best_code)[0]
    codes = best_code[event_cycles]

    # Per-polarity sorted event-cycle arrays (for vectorized searchsorted
    # window probes) and run-start arrays (consecutive event cycles are
    # one physical variation, Section 3.1.3).
    cycle_index = np.arange(n_cycles)
    by_code = {}
    for code in (1, 2):
        bits = best_code == code
        prev = np.empty_like(bits)
        prev[0] = False
        prev[1:] = bits[:-1]
        run_start = np.where(bits & ~prev, cycle_index, 0)
        np.maximum.accumulate(run_start, out=run_start)
        by_code[code] = (event_cycles[codes == code], run_start)

    events: List[Optional[ResonantEvent]] = [None] * event_cycles.shape[0]
    for code in (1, 2):
        chains = _trace_chains(detector, by_code, code)
        polarity = Polarity.HIGH_LOW if code == 1 else Polarity.LOW_HIGH
        positions = np.nonzero(codes == code)[0].tolist()
        for position, chain in zip(positions, chains):
            events[position] = ResonantEvent(
                cycle=chain[0], polarity=polarity, count=len(chain),
                chain_cycles=tuple(chain),
            )

    # Leave the detector's observable counters exactly as the scalar
    # loop would; mark it consumed (``_cycle`` advanced) so a stray
    # ``observe`` afterwards fails loudly in the shift registers.
    detector.comparisons = min(detector.comparisons + comparisons, COUNTER_CAP)
    detector.nonfinite_samples = min(
        detector.nonfinite_samples + nonfinite, COUNTER_CAP
    )
    finite_indices = np.nonzero(finite)[0]
    if finite_indices.shape[0]:
        detector._last_finite_amps = float(x[finite_indices[-1]])
    detector.total_events = min(detector.total_events + len(events), COUNTER_CAP)
    for event in events:
        detector.events_by_polarity[event.polarity] = min(
            detector.events_by_polarity[event.polarity] + 1, COUNTER_CAP
        )
    if events:
        detector.last_event = events[-1]
    detector._cycle = n_cycles - 1
    return events


def _trace_chains(detector, by_code, code) -> List[List[int]]:
    """Chains for every event of one polarity code, traced in lockstep.

    Mirrors the scalar ``ResonanceDetector._trace_chain`` exactly, but
    advances all events one *link* at a time: link ``k`` of every still-
    active chain probes the same opposite-polarity event array (polarity
    alternates deterministically along a chain), so each link is one
    vectorized ``searchsorted`` instead of a per-event bisect loop.
    Links only ever stop (the active set shrinks monotonically), so each
    chain's links are a prefix of the link table.
    """
    cycles, _ = by_code[code]
    n_events = cycles.shape[0]
    if n_events == 0:
        return []
    h_min, h_max = detector._h_min, detector._h_max
    slack = detector._chain_slack
    tolerance = detector.max_repetition_tolerance
    # Events only see registers aged against their own cycle: every
    # window is clamped to the register retention horizon.
    horizon = cycles - (detector.register_length - 1)
    reference = cycles
    active = np.ones(n_events, dtype=bool)
    expected = 3 - code
    links = []
    for _ in range(tolerance):
        target, run_start = by_code[expected]
        if target.shape[0] == 0:
            break
        lo = np.maximum(np.maximum(reference - h_max, horizon), 0)
        hi = reference - h_min + slack
        probe = np.searchsorted(target, hi, side="right") - 1
        found = target[np.maximum(probe, 0)]
        ok = active & (probe >= 0) & (found >= lo)
        if not ok.any():
            break
        links.append((ok, found))
        reference = np.where(
            ok,
            np.maximum(np.maximum(run_start[found], horizon), 0),
            reference,
        )
        active = ok
        expected = 3 - expected

    table = np.full((n_events, len(links) + 1), -1, dtype=np.int64)
    table[:, 0] = cycles
    for k, (ok, found) in enumerate(links):
        table[ok, k + 1] = found[ok]
    chains = []
    append = chains.append
    for row in table.tolist():
        try:
            append(row[:row.index(-1)])
        except ValueError:
            append(row)
    return chains


# ----------------------------------------------------------------------
# Supply kernel
# ----------------------------------------------------------------------
def advances_on_kernel(supply) -> bool:
    """True when :func:`run_supply` advances ``supply`` on the kernel.

    Only a plain :class:`PowerSupply` does.  A subclass may override
    ``step``, and an overlay (a fault attacker, a chaos sabotage) adds its
    own ``step`` while forwarding every other attribute -- the
    integrator's too -- to the supply it wraps, so the kernel would skip
    the overlay's work.
    """
    return type(supply) is PowerSupply


def run_supply(supply, currents) -> np.ndarray:
    """Advance a supply over a whole current trace, bit-exactly.

    Equivalent to ``[supply.step(c) for c in currents]`` -- same voltages
    to the last bit, same violation bookkeeping, same trace recording,
    same ``FaultError``/``SimulationError`` at the same cycle with the
    supply state advanced exactly as far as the scalar loop would have
    advanced it.  A plain ``PowerSupply`` takes the kernel: the
    integrator locals hoisted out of the per-cycle loop and the violation
    statistics computed vectorized.  Any other supply is stepped (see
    :func:`advances_on_kernel`).  Returns the voltage waveform.
    """
    arr = np.asarray(currents, dtype=float)
    currents = arr.tolist()
    if not advances_on_kernel(supply):
        return np.asarray([supply.step(u) for u in currents])
    n_cycles = len(currents)
    integrator = supply._integrator
    state = integrator.state
    v = state.voltage
    i_l = state.inductor_current
    dt, inv_c, inv_l, r, substeps = integrator.coefficients()
    half_dt = 0.5 * dt

    # Common case: all inputs finite and the integration stays finite.
    # Run the recurrence with no per-cycle checks, then verify the whole
    # voltage waveform at once; on the rare non-finite input or
    # divergence, discard and replay with the per-cycle checked loop
    # from the untouched starting state so the error lands at the exact
    # scalar cycle.  (Identical arithmetic either way: float ops are
    # deterministic, and garbage computed past a divergence is thrown
    # away.)
    if n_cycles and bool(np.isfinite(arr).all()):
        volts: List[float] = []
        append = volts.append
        if substeps == 1:
            for u in currents:
                dv1 = (i_l - u) * inv_c
                di1 = (-v - r * i_l) * inv_l
                v_pred = v + dt * dv1
                i_pred = i_l + dt * di1
                dv2 = (i_pred - u) * inv_c
                di2 = (-v_pred - r * i_pred) * inv_l
                v = v + half_dt * (dv1 + dv2)
                i_l = i_l + half_dt * (di1 + di2)
                append(v + r * u)
        else:
            for u in currents:
                for _ in range(substeps):
                    dv1 = (i_l - u) * inv_c
                    di1 = (-v - r * i_l) * inv_l
                    v_pred = v + dt * dv1
                    i_pred = i_l + dt * di1
                    dv2 = (i_pred - u) * inv_c
                    di2 = (-v_pred - r * i_pred) * inv_l
                    v = v + half_dt * (dv1 + dv2)
                    i_l = i_l + half_dt * (di1 + di2)
                append(v + r * u)
        volts_arr = np.asarray(volts)
        if bool(np.isfinite(volts_arr).all()):
            _writeback_supply(supply, currents, volts, v, i_l, None)
            return volts_arr
        v = state.voltage
        i_l = state.inductor_current

    start = supply.cycle
    isfinite = math.isfinite
    volts = []
    append = volts.append
    error: Optional[Exception] = None
    for u in currents:
        if not isfinite(u):
            error = FaultError(
                f"non-finite CPU current {u!r} at cycle "
                f"{start + len(volts)}"
            )
            break
        for _ in range(substeps):
            dv1 = (i_l - u) * inv_c
            di1 = (-v - r * i_l) * inv_l
            v_pred = v + dt * dv1
            i_pred = i_l + dt * di1
            dv2 = (i_pred - u) * inv_c
            di2 = (-v_pred - r * i_pred) * inv_l
            v = v + half_dt * (dv1 + dv2)
            i_l = i_l + half_dt * (di1 + di2)
        voltage = v + r * u
        if not isfinite(voltage):
            error = SimulationError(
                f"power-supply voltage diverged ({voltage!r}) at cycle"
                f" {start + len(volts)}; integrator state is no longer"
                " trustworthy"
            )
            break
        append(voltage)

    _writeback_supply(supply, currents, volts, v, i_l, error)
    if error is not None:
        raise error
    return np.asarray(volts)


def _writeback_supply(supply, currents, volts, v, i_l, error) -> None:
    """Apply a kernel advance's effects back onto the supply object.

    ``volts`` holds the completed cycles only; on an error the state is
    written back exactly as the scalar loop leaves it at the failing
    cycle (``FaultError`` precedes the integrator update for that cycle,
    a divergence ``SimulationError`` follows it -- the caller passes the
    matching ``v``/``i_l``).
    """
    n_done = len(volts)
    state = supply._integrator.state
    state.voltage = v
    state.inductor_current = i_l
    if n_done:
        volts_arr = np.asarray(volts)
        violated = np.abs(volts_arr) > supply._margin
        previous = np.empty_like(violated)
        previous[0] = supply._in_violation
        previous[1:] = violated[:-1]
        supply.violation_cycles += int(np.count_nonzero(violated))
        supply.violation_events += int(np.count_nonzero(violated & ~previous))
        if supply.first_violation_cycle is None and violated.any():
            supply.first_violation_cycle = supply.cycle + int(
                np.argmax(violated)
            )
        supply._in_violation = bool(violated[-1])
        supply.last_voltage = volts[-1]
        if supply._record:
            trace = supply.trace
            trace.currents.extend(currents[:n_done])
            trace.voltages.extend(volts)
            trace.violations.extend(bool(flag) for flag in violated)
    supply.cycle += n_done


def run_supply_batch(
    supplies: Sequence, currents: Sequence
) -> List[Union[np.ndarray, Exception]]:
    """Advance several independent supplies over equal-length traces.

    Lanes are stacked ``(cycles, lanes)`` and advanced with elementwise
    NumPy ops -- IEEE-identical per lane to that lane's scalar run.  A
    lane whose supply does not advance on the kernel (see
    :func:`advances_on_kernel`), whose inputs are non-finite, whose
    integration diverges, or whose ``substeps`` differs from the group is
    run through :func:`run_supply` on its own (reproducing the scalar
    error at the exact cycle); its entry in the returned list is the
    raised exception instead of the voltage array.
    """
    n_lanes = len(supplies)
    if n_lanes != len(currents):
        raise SimulationError("one current trace per supply lane required")
    if n_lanes == 0:
        return []
    traces = [np.ascontiguousarray(c, dtype=float) for c in currents]
    n_cycles = traces[0].shape[0]
    if any(t.shape != (n_cycles,) for t in traces):
        raise SimulationError("batched supply lanes must share a trace length")

    results: List[Union[np.ndarray, Exception, None]] = [None] * n_lanes

    def scalar_lane(lane: int) -> None:
        try:
            results[lane] = run_supply(supplies[lane], traces[lane])
        except (FaultError, SimulationError) as exc:
            results[lane] = exc

    # Group batchable lanes by substep count; degrade odd lanes to the
    # scalar kernel (still far faster than per-cycle ``step`` calls).
    groups: dict = {}
    for lane, (supply, trace) in enumerate(zip(supplies, traces)):
        if not advances_on_kernel(supply) or not np.isfinite(trace).all():
            scalar_lane(lane)
            continue
        groups.setdefault(supply._integrator.substeps, []).append(lane)

    for substeps, lanes in groups.items():
        if len(lanes) == 1 or n_cycles == 0:
            for lane in lanes:
                scalar_lane(lane)
            continue
        stacked = np.column_stack([traces[lane] for lane in lanes])
        integrators = [supplies[lane]._integrator for lane in lanes]
        coeffs = [i.coefficients() for i in integrators]
        v = np.array([i.state.voltage for i in integrators])
        i_l = np.array([i.state.inductor_current for i in integrators])
        dt = np.array([c[0] for c in coeffs])
        inv_c = np.array([c[1] for c in coeffs])
        inv_l = np.array([c[2] for c in coeffs])
        r = np.array([c[3] for c in coeffs])
        half_dt = 0.5 * dt
        volts = np.empty((n_cycles, len(lanes)), dtype=float)
        with np.errstate(all="ignore"):
            for t in range(n_cycles):
                u = stacked[t]
                for _ in range(substeps):
                    dv1 = (i_l - u) * inv_c
                    di1 = (-v - r * i_l) * inv_l
                    v_pred = v + dt * dv1
                    i_pred = i_l + dt * di1
                    dv2 = (i_pred - u) * inv_c
                    di2 = (-v_pred - r * i_pred) * inv_l
                    v = v + half_dt * (dv1 + dv2)
                    i_l = i_l + half_dt * (di1 + di2)
                volts[t] = v + r * u
        finite_lane = np.isfinite(volts).all(axis=0)
        for column, lane in enumerate(lanes):
            if not finite_lane[column]:
                # Replay scalar from the untouched supply state so the
                # divergence error lands at the exact scalar cycle.
                scalar_lane(lane)
                continue
            lane_volts = volts[:, column].tolist()
            _writeback_supply(
                supplies[lane], traces[lane].tolist(), lane_volts,
                float(v[column]), float(i_l[column]), None,
            )
            results[lane] = volts[:, column].copy()

    return results  # type: ignore[return-value]
