"""The benchmark's four workloads, each a grid generated from a seed.

A builder sets a workload up -- for ``replay_design_space`` that includes
recording the shared trace store -- and returns a :class:`Workload` whose
``run_pass`` executes the whole grid once, through the simulator's
public API, and returns the outputs to fingerprint.  Every pass of one
workload runs the identical grid on fresh runners, so passes can be
repeated for a steadier median and must all produce the same
fingerprint.

Grid sizes give every pass at least 40 cell gaps, so the 75th
percentile of cell time has ten samples beyond it, while one pass still
fits in a third of the run on a 2-core host.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import time
from dataclasses import asdict, dataclass, is_dataclass, replace
from typing import Callable, List

from repro.baselines.damping import PipelineDampingController
from repro.baselines.voltage_threshold import VoltageThresholdController
from repro.config import TABLE1_SUPPLY, TuningConfig
from repro.core.tuning import ResonanceTuningController
from repro.sim import BenchmarkRunner, ResilienceConfig, SweepConfig

#: The representative subset of ``benchmarks/conftest.py``: heavy
#: violators, moderate violators and clean applications.
SUBSET = ("swim", "bzip", "parser", "mcf", "lucas", "fma3d", "gzip", "eon")
POOL_SUBSET = ("swim", "parser", "gzip", "fma3d")
SMOKE_SUBSET = ("swim", "gzip")

#: Every trace seed of every grid is ``TRACE_SEED + SEED_STRIDE * seed +
#: k`` for the ``k``-th seed column, so ``--seed`` picks new inputs.
TRACE_SEED = 1
SEED_STRIDE = 7_919

#: Pipeline damping at half the resonant current variation threshold
#: (Table 5's 0.5x row, 13 A).
DAMPING_DELTA_AMPS = 0.5 * TuningConfig().resonant_current_threshold_amps


@dataclass
class Workload:
    """One set-up workload, ready to run timed passes."""

    name: str
    cells: int  # cells one pass runs
    cycles_per_cell: int  # measured + warmup cycles of one cell
    workers: int
    #: runs the grid once, calling ``clock.tick`` per finished cell, and
    #: returns the summaries or results to fingerprint
    run_pass: Callable[["CellClock"], list]
    #: problems found in one pass's outputs (empty when correct)
    verify: Callable[[list], List[str]]


class CellClock:
    """Cell completion times, grouped into sequences (one per sweep)."""

    def __init__(self):
        self.sequences: List[List[float]] = []

    def start(self) -> None:
        """Begin a new sequence: gaps never span two sweeps."""
        self.sequences.append([])

    def tick(self, *_) -> None:
        self.sequences[-1].append(time.perf_counter())

    def gaps(self, lag: int = 1) -> List[float]:
        """Seconds from each completion to the ``lag``-th next one.

        With ``lag`` equal to the number of workers this is the time one
        worker spends per cell: completions of two busy workers
        interleave, so gaps to the very next completion are bimodal.
        """
        return [
            times[i + lag] - times[i]
            for times in self.sequences
            for i in range(len(times) - lag)
        ]


def fingerprint(records) -> str:
    """SHA-256 over dataclass records, floats as ``float.hex``.

    Host diagnostics such as a sweep's ``timings`` are attributes outside
    the dataclass fields, so ``asdict`` leaves them out.
    """
    canonical = [
        _canonical(asdict(r) if is_dataclass(r) else r) for r in records
    ]
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _canonical(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def trace_seeds(seed: int, count: int) -> List[int]:
    return [TRACE_SEED + SEED_STRIDE * seed + k for k in range(count)]


def _sweep_workload(
    name, config, factories, benchmarks, seeds, workers=1, resilience=None
) -> Workload:
    """A workload whose pass is one runner sweeping each factory."""
    def run_pass(clock: CellClock) -> list:
        summaries = []
        with BenchmarkRunner(config) as runner:
            for factory in factories:
                clock.start()
                summaries.append(runner.sweep(
                    factory, benchmarks, progress=clock.tick, seeds=seeds,
                    resilience=resilience() if resilience else None,
                ))
        return summaries

    def verify(summaries: list) -> List[str]:
        problems = []
        for summary in summaries:
            if summary.failures:
                problems.append(
                    f"{summary.technique}: {len(summary.failures)} failed"
                    f" cell(s), first: {summary.failures[0].message}"
                )
            elif len(summary.per_benchmark) != len(benchmarks) * len(seeds):
                problems.append(f"{summary.technique}: cells missing")
        return problems

    return Workload(
        name, len(factories) * len(benchmarks) * len(seeds),
        config.n_cycles + config.warmup_cycles, workers, run_pass, verify,
    )


def _scalar_sweep(name, factories, seed, smoke) -> Workload:
    """The 8-benchmark subset x 3 seeds, in process, 2,000 + 1,000 cycles."""
    config = SweepConfig(
        n_cycles=300 if smoke else 2_000, warmup_cycles=100 if smoke else 1_000
    )
    return _sweep_workload(
        name, config, factories, SMOKE_SUBSET if smoke else SUBSET,
        trace_seeds(seed, 1 if smoke else 3),
    )


def tuning_sweep(seed: int, workdir: str, smoke: bool = False) -> Workload:
    """Resonance tuning at initial response times 75 and 150 (Table 3)."""
    factories = [
        functools.partial(
            ResonanceTuningController,
            tuning_config=TuningConfig(initial_response_time=response),
        )
        for response in (75, 150)
    ]
    return _scalar_sweep("tuning_sweep", factories, seed, smoke)


def baselines_sweep(seed: int, workdir: str, smoke: bool = False) -> Workload:
    """Voltage threshold 20/10/5 (Table 4) and damping at 13 A (Table 5)."""
    factories = [
        functools.partial(
            VoltageThresholdController,
            target_threshold_volts=0.020,
            sensor_noise_pp_volts=0.010,
            delay_cycles=5,
        ),
        functools.partial(
            PipelineDampingController, delta_amps=DAMPING_DELTA_AMPS
        ),
    ]
    return _scalar_sweep("baselines_sweep", factories, seed, smoke)


def pool_checkpointed(
    seed: int, workdir: str, smoke: bool = False
) -> Workload:
    """Default tuning and damping on two pool workers, checkpointing.

    Short cells make per-cell dispatch, pickling and the checkpoint
    rewrite after every cell a visible share of the pass.
    """
    workers = 2
    checkpoints = itertools.count()

    def resilience() -> ResilienceConfig:
        path = os.path.join(workdir, f"sweep-{next(checkpoints)}.json")
        return ResilienceConfig(workers=workers, checkpoint_path=path)

    return _sweep_workload(
        "pool_checkpointed",
        SweepConfig(
            n_cycles=200 if smoke else 2_000,
            warmup_cycles=100 if smoke else 500,
        ),
        [
            ResonanceTuningController,
            functools.partial(
                PipelineDampingController, delta_amps=DAMPING_DELTA_AMPS
            ),
        ],
        SMOKE_SUBSET if smoke else POOL_SUBSET,
        trace_seeds(seed, 2 if smoke else 6),
        workers,
        resilience,
    )


def replay_design_space(
    seed: int, workdir: str, smoke: bool = False
) -> Workload:
    """Base cells over 24 supply capacitances, replayed from one store.

    Set-up records one current trace per benchmark (full pipeline runs);
    the trace key leaves the supply out, so the timed passes replay every
    capacitance variant from those recordings without the pipeline.
    """
    benchmarks = SMOKE_SUBSET if smoke else SUBSET
    scales = [0.5 + k / 16 for k in range(24)][::8 if smoke else 1]
    n_cycles, warmup = (300, 100) if smoke else (10_000, 2_000)
    trace_seed = trace_seeds(seed, 1)[0]
    store = os.path.join(workdir, "trace-store")

    def config(scale: float) -> SweepConfig:
        supply = replace(
            TABLE1_SUPPLY,
            capacitance_farads=TABLE1_SUPPLY.capacitance_farads * scale,
        )
        return SweepConfig(n_cycles=n_cycles, warmup_cycles=warmup,
                           supply=supply)

    recorder = BenchmarkRunner(config(1.0), trace_store=store)
    recorder.prefetch_base_batch([(name, trace_seed) for name in benchmarks])
    reference = [recorder.run_base(name, trace_seed) for name in benchmarks]
    recorded = sorted(os.listdir(os.path.join(store, "index")))

    def run_pass(clock: CellClock) -> list:
        results = []
        clock.start()
        for scale in scales:
            runner = BenchmarkRunner(config(scale), trace_store=store)
            for name in benchmarks:
                results.append(runner.run_base(name, trace_seed))
                clock.tick()
        return results

    def verify(results: list) -> List[str]:
        problems = []
        at_table1 = scales.index(1.0) * len(benchmarks)
        if results[at_table1:at_table1 + len(benchmarks)] != reference:
            problems.append("replay at 1.0x differs from full simulation")
        if sorted(os.listdir(os.path.join(store, "index"))) != recorded:
            problems.append("timed pass re-recorded traces (replay missed)")
        return problems

    return Workload(
        "replay_design_space", len(scales) * len(benchmarks),
        n_cycles + warmup, 1, run_pass, verify,
    )


BUILDERS = {
    builder.__name__: builder
    for builder in (
        tuning_sweep, baselines_sweep, replay_design_space, pool_checkpointed
    )
}
