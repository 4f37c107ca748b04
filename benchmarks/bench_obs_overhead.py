"""Bench: observability overhead when enabled.

The obs layer's contract is "free when off": with no ``--trace-out``,
``--metrics-out`` or ``--profile-out`` every instrumented seam is one
module-attribute read, and nothing per-cycle touches the subsystem.
``tests/test_obs.py`` holds that off path deterministically, by counting
calls into ``repro.obs``.  This bench times the same sequential sweep
three ways -- baseline (obs off), obs fully enabled (trace + metrics),
and the sampling profiler on top -- interleaved, each leg the best of
``REPEATS``, and asserts that each enabled leg stays within 1.5x the
baseline plus ``ABSOLUTE_FLOOR_S``.
"""

import time

from repro import obs
from repro.core import ResonanceTuningController
from repro.sim import BenchmarkRunner, SweepConfig

from conftest import run_once

BENCH_BENCHMARKS = ("swim", "parser", "gzip")
BENCH_CYCLES = 8_000
REPEATS = 3
#: Absolute slack so sub-second sweeps don't fail on timer jitter.
ABSOLUTE_FLOOR_S = 0.05

FACTORY = ResonanceTuningController


def _sweep_once():
    with BenchmarkRunner(SweepConfig(n_cycles=BENCH_CYCLES)) as runner:
        return runner.sweep(FACTORY, benchmarks=BENCH_BENCHMARKS)


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _interleaved_best(repeats, *legs):
    """Run the legs in turn ``repeats`` times; each one's minimum time.

    Interleaving keeps slow drift (a noisy neighbour, throttling) from
    loading one leg of the comparison, as back-to-back batches would.
    """
    best = [float("inf")] * len(legs)
    for _ in range(repeats):
        for index, leg in enumerate(legs):
            best[index] = min(best[index], _timed(leg))
    return best


def test_bench_obs_overhead(benchmark, tmp_path):
    def enabled_sweep():
        obs.configure(
            trace_out=str(tmp_path / "trace.json"),
            metrics_out=str(tmp_path / "metrics.json"),
        )
        try:
            _sweep_once()
        finally:
            obs.finalize()

    def profiled_sweep():
        obs.configure(
            trace_out=str(tmp_path / "trace.json"),
            metrics_out=str(tmp_path / "metrics.json"),
            profile_out=str(tmp_path / "profile.json"),
        )
        try:
            _sweep_once()
        finally:
            obs.finalize()

    baseline, enabled, profiled = run_once(
        benchmark,
        lambda: _interleaved_best(
            REPEATS, _sweep_once, enabled_sweep, profiled_sweep
        ),
    )

    print()
    print(f"sweep: {len(BENCH_BENCHMARKS)} benchmarks at {BENCH_CYCLES} cycles"
          f" (each leg best of {REPEATS}, interleaved)")
    print(f"baseline (obs off)  : {baseline:8.3f} s")
    print(f"obs fully enabled   : {enabled:8.3f} s"
          f"  ({(enabled - baseline) / baseline:+.2%} vs baseline)")
    print(f"obs + profiler      : {profiled:8.3f} s"
          f"  ({(profiled - baseline) / baseline:+.2%} vs baseline)")

    # Enabled instrumentation is allowed to cost something, but an
    # explosion here means a per-cycle call sneaked into the hot loop.
    assert enabled <= 1.5 * baseline + ABSOLUTE_FLOOR_S, (
        f"enabled-path cost {(enabled - baseline) / baseline:.2%}"
        f" suggests per-cycle instrumentation leaked into the hot loop"
    )
    # The sampler only *reads* frames every few ms; if profiling blows
    # past this bound it has started interfering with the sweep itself.
    assert profiled <= 1.5 * baseline + ABSOLUTE_FLOOR_S, (
        f"profiled-path cost {(profiled - baseline) / baseline:.2%}"
        f" suggests the sampler is perturbing the hot loop"
    )
