"""Bench: vectorized cycle kernel vs the scalar per-cycle hot loop.

Generates realistic processor current traces (three SPEC2K workloads
through the Table 1 processor model), then advances the power supply and
the resonance detector over each trace two ways:

* **sequential** -- the scalar reference: one ``PowerSupply.step`` and
  one ``ResonanceDetector.observe`` call per cycle, exactly as the
  simulation's scalar loop does for feedback controllers;
* **kernel** -- ``repro.core.kernel.run_supply`` + ``run_detector``,
  the whole-trace fast path the feedback-free simulation takes.

Both paths must agree bit for bit (voltages, events, counters); the
kernel must be at least 5x faster in aggregate.
"""

import time

from repro.config import TABLE1_PROCESSOR, TABLE1_SUPPLY, TABLE1_TUNING
from repro.core import CurrentSensor, ResonanceDetector, run_detector, run_supply
from repro.power import PowerSupply, RLCAnalysis
from repro.uarch import SPEC2K, Processor
from repro.uarch.pipeline import NO_CONTROL

from conftest import run_once

WORKLOADS = ("gzip", "lucas", "swim")
TRACE_CYCLES = 60_000
#: The scalar leg runs the same per-cycle supply and detector code as
#: feedback sweeps, so speeding those up shrinks this ratio.  Measured
#: 6-9x on a 2-CPU host; the floor sits below that range.
MIN_SPEEDUP = 5.0


def _detector_kwargs():
    band = RLCAnalysis(TABLE1_SUPPLY).band
    return {
        "half_periods": band.half_periods,
        "threshold_amps": TABLE1_TUNING.resonant_current_threshold_amps,
        "max_repetition_tolerance": TABLE1_TUNING.max_repetition_tolerance,
    }


def _workload_trace(name):
    """Per-cycle processor currents plus their sensed (whole-amp) stream."""
    processor = Processor.from_profile(
        SPEC2K[name],
        n_instructions=2_000_000,
        config=TABLE1_PROCESSOR,
        supply_config=TABLE1_SUPPLY,
    )
    processor.power.attach_supply(
        TABLE1_SUPPLY.vdd_volts, TABLE1_SUPPLY.cycle_seconds
    )
    currents = [
        processor.step(NO_CONTROL).current_amps for _ in range(TRACE_CYCLES)
    ]
    sensor = CurrentSensor()
    return currents, [sensor.read(amps) for amps in currents]


def _scalar_leg(currents, sensed, kwargs):
    supply = PowerSupply(TABLE1_SUPPLY, initial_current=35.0)
    detector = ResonanceDetector(**kwargs)
    volts = []
    events = []
    for cycle, (amps, sample) in enumerate(zip(currents, sensed)):
        volts.append(supply.step(amps))
        event = detector.observe(cycle, sample)
        if event is not None:
            events.append(event)
    return volts, events, supply, detector


def _kernel_leg(currents, sensed, kwargs):
    supply = PowerSupply(TABLE1_SUPPLY, initial_current=35.0)
    detector = ResonanceDetector(**kwargs)
    volts = run_supply(supply, currents)
    events = run_detector(detector, sensed)
    return volts, events, supply, detector


def _best_of(fn, rounds):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_bench_core_kernel(benchmark):
    kwargs = _detector_kwargs()
    traces = {name: _workload_trace(name) for name in WORKLOADS}

    scalar_wall = 0.0
    kernel_wall = 0.0
    per_workload = {}
    for name, (currents, sensed) in traces.items():
        # Warm both paths (imports, allocator) before timing.
        _kernel_leg(currents, sensed, kwargs)
        scalar_out, scalar_best = _best_of(
            lambda: _scalar_leg(currents, sensed, kwargs), rounds=3
        )
        kernel_out, kernel_best = _best_of(
            lambda: _kernel_leg(currents, sensed, kwargs), rounds=5
        )
        scalar_wall += scalar_best
        kernel_wall += kernel_best
        per_workload[name] = (scalar_best, kernel_best)

        # Bit-equivalence is the acceptance bar, not a tolerance.
        s_volts, s_events, s_supply, s_detector = scalar_out
        k_volts, k_events, k_supply, k_detector = kernel_out
        assert list(k_volts) == s_volts
        assert k_events == s_events
        assert k_supply.violation_cycles == s_supply.violation_cycles
        assert k_supply.violation_events == s_supply.violation_events
        assert k_supply.first_violation_cycle == s_supply.first_violation_cycle
        assert k_detector.comparisons == s_detector.comparisons
        assert k_detector.total_events == s_detector.total_events
        assert k_detector.events_by_polarity == s_detector.events_by_polarity

    # One timed pedantic round so pytest-benchmark records the kernel leg.
    name = WORKLOADS[0]
    run_once(
        benchmark, _kernel_leg, traces[name][0], traces[name][1], kwargs
    )

    speedup = scalar_wall / kernel_wall
    print()
    print(f"trace: {len(WORKLOADS)} workloads x {TRACE_CYCLES} cycles")
    for name, (s_wall, k_wall) in per_workload.items():
        print(f"  {name:6s} sequential {s_wall:7.3f} s   kernel"
              f" {k_wall:7.4f} s   (x{s_wall / k_wall:.1f})")
    print(f"aggregate  sequential {scalar_wall:7.3f} s   kernel"
          f" {kernel_wall:7.4f} s   (x{speedup:.1f})")

    assert speedup >= MIN_SPEEDUP, (
        f"kernel speedup {speedup:.1f}x below the {MIN_SPEEDUP:.0f}x floor"
    )
