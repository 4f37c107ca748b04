"""Bench: sweep backends (sequential / pool) on a multi-technique grid.

Runs the same 4-benchmark x 3-technique x 4-seed grid with ``workers=1``
and ``workers=4``, prints each backend's wall clock plus the sweeps'
per-phase ``timings`` breakdown, and asserts the aggregates are
byte-identical across both.  The speedup assertion only fires on
machines with at least 4 cores -- on smaller hosts the fan-out run still
must match bit-for-bit.
"""

import dataclasses
import functools
import json
import os
import time

from repro.baselines import ConvolutionController, PipelineDampingController
from repro.core import ResonanceTuningController
from repro.sim import BenchmarkRunner, ResilienceConfig, SweepConfig

from conftest import run_once

GRID_BENCHMARKS = ("swim", "parser", "gzip", "fma3d")
GRID_SEEDS = (None, 11, 12, 13)
GRID_CYCLES = 6000

TECHNIQUES = (
    ("tuning", ResonanceTuningController),
    ("damping", functools.partial(PipelineDampingController, delta_amps=13.0)),
    ("convolution",
     functools.partial(ConvolutionController, estimate_gain=1.0)),
)


def _fingerprints(summaries):
    return {
        name: json.dumps(dataclasses.asdict(summary), sort_keys=True)
        for name, summary in summaries.items()
    }


def _run_grid(workers):
    """Sweep every technique over the grid; return summaries + wall clock."""
    config = SweepConfig(n_cycles=GRID_CYCLES)
    summaries = {}
    start = time.perf_counter()
    with BenchmarkRunner(config) as runner:
        for name, factory in TECHNIQUES:
            summaries[name] = runner.sweep(
                factory,
                benchmarks=GRID_BENCHMARKS,
                seeds=GRID_SEEDS,
                resilience=ResilienceConfig(workers=workers),
            )
    return summaries, time.perf_counter() - start


def test_bench_sweep_parallel(benchmark):
    sequential, seq_wall = _run_grid(1)
    parallel, par_wall = run_once(benchmark, _run_grid, 4)

    cells = len(GRID_BENCHMARKS) * len(GRID_SEEDS) * len(TECHNIQUES)
    print()
    print(f"grid: {cells} cells at {GRID_CYCLES} cycles")
    print(f"sequential  wall clock : {seq_wall:8.2f} s")
    print(f"pool        wall clock : {par_wall:8.2f} s"
          f"  (x{seq_wall / par_wall:.2f})")
    for name, summary in parallel.items():
        timings = summary.timings
        print(f"  {name:12s} workers={timings['workers']:.0f}"
              f" execute={timings['execute']:.2f}s"
              f" checkpoint_io={timings['checkpoint_io']:.3f}s"
              f" aggregate={timings['aggregate']:.3f}s"
              f" total={timings['total']:.2f}s")

    # Fan-out dispatch must not change a single byte of the results.
    assert _fingerprints(parallel) == _fingerprints(sequential)
    for name, summary in parallel.items():
        assert len(summary.per_benchmark) == len(GRID_BENCHMARKS) * len(GRID_SEEDS)
        assert not summary.failures

    if (os.cpu_count() or 1) >= 4:
        assert seq_wall / par_wall >= 2.0, (
            f"workers=4 speedup {seq_wall / par_wall:.2f}x below 2x"
        )
