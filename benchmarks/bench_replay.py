"""Bench: trace record/replay vs full simulation on a design-space sweep.

The scenario the store exists for: exploring supply RLC variants (here a
capacitance scale axis) over a fixed set of workloads.  The per-cycle
current trace of a base (uncontrolled) run is a pure function of the
front end, so one recorded trace serves *every* supply variant -- a warm
store turns the whole grid into replays that skip the uarch pipeline.

* **sequential** -- full simulation for every (variant, workload) cell;
* **replay_warm** -- the same grid against a pre-warmed shared store.

Replayed results must equal the full-simulation results bit for bit
(dataclass equality, energy included), the warm grid must be at least 5x
faster in aggregate, and a corrupted store entry must degrade that cell
to full simulation -- with an incident counted -- while still returning
the exact same numbers.
"""

import os
import time
from dataclasses import replace

from repro.config import TABLE1_SUPPLY
from repro.faults.chaos import flip_bit
from repro.sim import BenchmarkRunner, SweepConfig
from repro.trace import TraceStore

from conftest import run_once

WORKLOADS = ("gzip", "lucas", "swim")
CAP_SCALES = (0.5, 0.75, 1.0, 1.5, 2.0)
CYCLES = 20_000
WARMUP = 2_000
MIN_SPEEDUP = 5.0


def _config(cap_scale):
    return SweepConfig(
        n_cycles=CYCLES,
        warmup_cycles=WARMUP,
        supply=replace(
            TABLE1_SUPPLY,
            capacitance_farads=TABLE1_SUPPLY.capacitance_farads * cap_scale,
        ),
    )


def _grid(store_dir=None):
    """Run base cells for every (capacitance scale, workload) pair."""
    results = {}
    for scale in CAP_SCALES:
        runner = BenchmarkRunner(_config(scale), trace_store=store_dir)
        for name in WORKLOADS:
            results[(scale, name)] = runner.run_base(name)
    return results


def test_bench_replay(benchmark, tmp_path):
    store_dir = str(tmp_path / "store")
    n_cells = len(CAP_SCALES) * len(WORKLOADS)

    # Timed full-simulation reference (also the correctness oracle).
    start = time.perf_counter()
    full = _grid()
    sequential_wall = time.perf_counter() - start

    # Untimed recording pass: one workload sweep warms the store for the
    # *entire* grid, because the trace key excludes the supply.
    _grid(store_dir)

    # Timed warm pass under pytest-benchmark.
    start = time.perf_counter()
    warm = run_once(benchmark, _grid, store_dir)
    replay_wall = time.perf_counter() - start

    assert warm == full, "replayed grid diverged from full simulation"

    # The warm grid must have been replays, not re-simulations: the
    # recording pass stored exactly one trace per workload.
    store = TraceStore(store_dir)
    assert len(os.listdir(store.index_dir)) == len(WORKLOADS)

    speedup = sequential_wall / replay_wall
    print()
    print(f"grid: {len(CAP_SCALES)} supply variants x {len(WORKLOADS)}"
          f" workloads x {CYCLES} cycles")
    print(f"  sequential  {sequential_wall:7.3f} s"
          f"  ({n_cells / sequential_wall:6.2f} cells/s)")
    print(f"  replay_warm {replay_wall:7.3f} s"
          f"  ({n_cells / replay_wall:6.2f} cells/s)   (x{speedup:.1f})")

    # Corrupt-store degradation: flip a bit in one object; the guarded
    # load must fall back to full simulation and still match bit-exactly.
    object_path = os.path.join(
        store.objects_dir, sorted(os.listdir(store.objects_dir))[0]
    )
    flip_bit(object_path)
    degraded_store = TraceStore(store_dir)
    degraded_runner = BenchmarkRunner(_config(1.0), trace_store=degraded_store)
    degraded = {
        name: degraded_runner.run_base(name) for name in WORKLOADS
    }
    assert degraded == {
        name: full[(1.0, name)] for name in WORKLOADS
    }, "corrupted store changed results instead of falling back"
    assert degraded_store.stats["guard_failures"] == 1
    assert degraded_store.stats["fallbacks"] == 1
    # The fallback re-simulation healed the corrupt entry.
    assert degraded_store.stats["records"] == 1
    print(f"  corrupt entry: guarded fallback + re-record verified")

    assert speedup >= MIN_SPEEDUP, (
        f"warm-replay speedup {speedup:.1f}x below the"
        f" {MIN_SPEEDUP:.0f}x floor"
    )
