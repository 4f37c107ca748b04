"""Registry and CLI for the paper's experiments.

``python -m repro.experiments <id>`` runs one experiment and prints its
rendered table/figure; ``--quick`` shrinks cycle counts and the benchmark
set for a fast sanity pass.  Every table and figure in the paper's
evaluation has an entry.

Resilience flags (``--checkpoint``, ``--resume``, ``--max-retries``,
``--timeout-s``, ``--workers``) build a
:class:`~repro.sim.runner.ResilienceConfig` that :func:`run_experiment`
installs as the process-wide default, so every sweep an experiment
performs -- however deeply it constructs its runners -- checkpoints after
each completed cell, survives flaky ones, and fans cells out to worker
processes when asked.
"""

from __future__ import annotations

import argparse
import difflib
from typing import Callable, Dict, Optional, Sequence

from repro import obs
from repro.errors import SweepInterrupted

from repro.experiments import (
    ablations,
    faults,
    figure1,
    figure3,
    figure4,
    figure5,
    table1,
    table2,
    table3,
    table4,
    table5,
)
from repro.sim import runner as runner_module
from repro.sim.runner import ResilienceConfig

__all__ = ["EXPERIMENTS", "EXTENSIONS", "run_experiment", "main"]

#: Small benchmark subset for --quick runs (violators + quiet apps).
QUICK_BENCHMARKS = ("swim", "bzip", "parser", "mcf", "fma3d", "gzip")
QUICK_CYCLES = 20_000

#: Default checkpoint location when ``--resume`` is given without an
#: explicit ``--checkpoint`` path.
DEFAULT_CHECKPOINT = ".repro-checkpoint.json"


def _run_figure1(quick: bool):
    return figure1.run()


def _run_table1(quick: bool):
    return table1.run()


def _run_figure3(quick: bool):
    return figure3.run()


def _run_figure4(quick: bool):
    # Quick mode scales with the same knob as every other experiment
    # (figure 4 needs a longer window than a sweep cell to catch a
    # violation, hence the factor of two).
    return figure4.run(max_cycles=2 * QUICK_CYCLES if quick else 200_000)


def _run_table2(quick: bool):
    if quick:
        return table2.run(n_cycles=QUICK_CYCLES, benchmarks=QUICK_BENCHMARKS)
    return table2.run()


def _run_table3(quick: bool):
    if quick:
        return table3.run(
            initial_response_times=(75, 100),
            n_cycles=QUICK_CYCLES,
            benchmarks=QUICK_BENCHMARKS,
        )
    return table3.run()


def _run_table4(quick: bool):
    if quick:
        return table4.run(
            configs=(table4.VTConfig(30, 0, 0), table4.VTConfig(20, 15, 3)),
            n_cycles=QUICK_CYCLES,
            benchmarks=QUICK_BENCHMARKS,
        )
    return table4.run()


def _run_table5(quick: bool):
    if quick:
        return table5.run(n_cycles=QUICK_CYCLES, benchmarks=QUICK_BENCHMARKS)
    return table5.run()


def _run_figure5(quick: bool):
    if quick:
        return figure5.run(n_cycles=QUICK_CYCLES, benchmarks=QUICK_BENCHMARKS)
    return figure5.run()


EXPERIMENTS: Dict[str, Callable[[bool], object]] = {
    "figure1": _run_figure1,
    "table1": _run_table1,
    "figure3": _run_figure3,
    "figure4": _run_figure4,
    "table2": _run_table2,
    "table3": _run_table3,
    "table4": _run_table4,
    "table5": _run_table5,
    "figure5": _run_figure5,
}


def _ablation(fn):
    def run(quick: bool):
        if quick:
            return fn(n_cycles=8_000, benchmarks=("swim", "gzip"))
        return fn()
    return run


def _run_fault_injection(quick: bool):
    if quick:
        return faults.run(
            n_cycles=6_000, benchmarks=("swim",), intensities=(0.3,)
        )
    return faults.run()


#: Design-choice evidence beyond the paper's own tables ('all' excludes
#: these; run them by name).
EXTENSIONS: Dict[str, Callable[[bool], object]] = {
    "ablation-two-tier": _ablation(ablations.run_two_tier),
    "ablation-band-coverage": _ablation(ablations.run_band_coverage),
    "ablation-sensing": _ablation(ablations.run_sensing),
    "ablation-detectors": _ablation(ablations.run_detectors),
    "ablation-fault-injection": _run_fault_injection,
}


def run_experiment(
    name: str,
    quick: bool = False,
    resilience: Optional[ResilienceConfig] = None,
):
    """Run one registered experiment or extension; returns its result.

    An unknown name raises :class:`KeyError` with close-match suggestions.
    A :class:`ResilienceConfig` is installed as the sweep default for the
    duration of the run (and restored afterwards), so nested runners honour
    checkpointing, retries and timeouts.
    """
    experiment = EXPERIMENTS.get(name) or EXTENSIONS.get(name)
    if experiment is None:
        known = sorted(EXPERIMENTS) + sorted(EXTENSIONS)
        close = difflib.get_close_matches(name, known, n=3)
        hint = f"; did you mean {' or '.join(map(repr, close))}?" if close else ""
        raise KeyError(f"unknown experiment {name!r}{hint} (choose from {known})")
    previous = runner_module.DEFAULT_RESILIENCE
    runner_module.DEFAULT_RESILIENCE = resilience
    try:
        return experiment(quick)
    finally:
        runner_module.DEFAULT_RESILIENCE = previous


def add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared sweep-resilience flags to a CLI parser."""
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="JSON checkpoint updated after every completed sweep cell",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=f"skip cells already in the checkpoint"
             f" (default path: {DEFAULT_CHECKPOINT})",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=0,
        help="retry a failed cell this many times on re-seeded traces",
    )
    parser.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        help="wall-clock budget per sweep cell in seconds",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for sweep cells (1 = sequential, in-process)",
    )
    parser.add_argument(
        "--heartbeat-stale-s",
        type=float,
        default=None,
        metavar="S",
        help="kill and requeue a parallel worker whose cell has not"
             " progressed for S seconds (default: supervision by process"
             " death only)",
    )
    parser.add_argument(
        "--max-worker-restarts",
        type=int,
        default=None,
        metavar="N",
        help="requeue a cell at most N times after losing its worker"
             " before parking it as a failure (default 2)",
    )
    parser.add_argument(
        "--drain-deadline-s",
        type=float,
        default=None,
        metavar="S",
        help="on SIGTERM/SIGINT, wait S seconds for in-flight cells before"
             " killing the pool and exiting resumable (default 10)",
    )
    parser.add_argument(
        "--no-circuit-breaker",
        action="store_true",
        help="run every (benchmark, seed) cell even after the benchmark's"
             " first cell exhausted its retry budget",
    )
    parser.add_argument(
        "--trace-store",
        metavar="PATH",
        default=None,
        help="directory of the content-addressed trace record/replay"
             " store: base-schedule cells record their current trace"
             " once per front end and replay it bit-exactly afterwards"
             " (default: no store, every cell simulates fully)",
    )


def resilience_from_args(args) -> Optional[ResilienceConfig]:
    """Build the ResilienceConfig the CLI flags describe (None if default).

    Only flags the user actually set become constructor overrides, so
    adding supervision knobs never disturbs the defaults of a config
    built from other flags (and an all-default command line still means
    "no resilience installed").
    """
    checkpoint = args.checkpoint
    if args.resume and checkpoint is None:
        checkpoint = DEFAULT_CHECKPOINT
    overrides = {}
    if checkpoint is not None:
        overrides["checkpoint_path"] = checkpoint
    if args.resume:
        overrides["resume"] = True
    if args.max_retries != 0:
        overrides["max_retries"] = args.max_retries
    if args.timeout_s is not None:
        overrides["timeout_s"] = args.timeout_s
    workers = getattr(args, "workers", 1)
    if workers != 1:
        overrides["workers"] = workers
    if getattr(args, "heartbeat_stale_s", None) is not None:
        overrides["heartbeat_stale_s"] = args.heartbeat_stale_s
    if getattr(args, "max_worker_restarts", None) is not None:
        overrides["max_worker_restarts"] = args.max_worker_restarts
    if getattr(args, "drain_deadline_s", None) is not None:
        overrides["drain_deadline_s"] = args.drain_deadline_s
    if getattr(args, "no_circuit_breaker", False):
        overrides["circuit_breaker"] = False
    if getattr(args, "trace_store", None) is not None:
        overrides["trace_store_path"] = args.trace_store
    if not overrides:
        return None
    return ResilienceConfig(**overrides)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(EXPERIMENTS) + sorted(EXTENSIONS) + ["all"],
        help="experiment ids (or 'all' for the paper's artifacts)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced cycles and benchmark subset for a fast pass",
    )
    add_resilience_flags(parser)
    obs.add_observability_flags(parser)
    args = parser.parse_args(argv)
    observing = obs.configure_from_args(args)
    logger = obs.get_logger("experiments")
    resilience = resilience_from_args(args)
    names = sorted(EXPERIMENTS) if "all" in args.experiments else args.experiments
    try:
        for name in names:
            try:
                result = run_experiment(
                    name, quick=args.quick, resilience=resilience
                )
            except SweepInterrupted as stop:
                logger.warning("%s: %s", name, stop)
                return stop.exit_code
            print(result.render())
            print()
        return 0
    finally:
        if observing:
            for path in obs.finalize(metadata={"experiments": list(names)}):
                logger.info("observability artifact written: %s", path)
