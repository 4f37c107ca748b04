"""Registry of the paper's experiments, and the flags that configure them.

``python -m repro experiment NAME... [--quick]`` runs experiments by name
and prints each rendered table or figure; ``all`` names the paper's nine
artifacts, and ``--quick`` shrinks cycle counts and the benchmark set for
a fast sanity pass.  Every table and figure in the paper's evaluation has
an entry, and every extension beyond it (:data:`EXTENSIONS`).  With
``--out DIR`` the command also checks the paper's claims about what it
produced (:mod:`repro.experiments.claims`) into ``DIR/claims.txt``.

The command builds one :class:`~repro.sim.runner.Session` from the
resilience flags (``--checkpoint``, ``--resume``, ``--max-retries``,
``--timeout-s``, ``--workers`` ...) and :func:`run_experiment` hands it to
every experiment, so all of the command's sweeps share one checkpoint,
one worker pool and one memo of finished cells and base runs: a cell that
two experiments need (Figure 5's design points are Table 3-5 rows) is
computed once.
"""

from __future__ import annotations

import argparse
import difflib
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments import (
    ablations,
    extensions,
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
from repro.sim.runner import ResilienceConfig, Session

__all__ = ["EXPERIMENTS", "EXTENSIONS", "run_experiment", "select"]

#: Small benchmark subset for --quick runs (violators + quiet apps).
QUICK_BENCHMARKS = ("swim", "bzip", "parser", "mcf", "fma3d", "gzip")
QUICK_CYCLES = 20_000

#: Default checkpoint location when ``--resume`` is given without an
#: explicit ``--checkpoint`` path.
DEFAULT_CHECKPOINT = ".repro-checkpoint.json"

Experiment = Callable[[bool, Session], object]


def _on_session(run, **quick) -> Experiment:
    """``run`` on the command's session, at full scale or with ``quick``'s
    keyword arguments under ``--quick``."""
    def experiment(quick_mode: bool, session: Session):
        return run(session=session, **(quick if quick_mode else {}))
    return experiment


def _without_session(run, **quick) -> Experiment:
    """``run`` for an artifact that sweeps nothing, so needs no session."""
    def experiment(quick_mode: bool, session: Session):
        return run(**(quick if quick_mode else {}))
    return experiment


_QUICK_SWEEP = dict(n_cycles=QUICK_CYCLES, benchmarks=QUICK_BENCHMARKS)
_QUICK_ABLATION = dict(n_cycles=8_000, benchmarks=("swim", "gzip"))

EXPERIMENTS: Dict[str, Experiment] = {
    "figure1": _without_session(figure1.run),
    "table1": _without_session(table1.run),
    "figure3": _without_session(figure3.run),
    # Figure 4 needs a longer window than a sweep cell to catch a
    # violation, hence twice the quick cycle count.
    "figure4": _without_session(figure4.run, max_cycles=2 * QUICK_CYCLES),
    "table2": _on_session(table2.run, **_QUICK_SWEEP),
    "table3": _on_session(
        table3.run, initial_response_times=(75, 100), **_QUICK_SWEEP
    ),
    "table4": _on_session(
        table4.run,
        configs=(table4.VTConfig(30, 0, 0), table4.VTConfig(20, 15, 3)),
        **_QUICK_SWEEP,
    ),
    "table5": _on_session(table5.run, **_QUICK_SWEEP),
    "figure5": _on_session(figure5.run, **_QUICK_SWEEP),
}

#: Design-choice evidence beyond the paper's own tables ('all' excludes
#: these; run them by name).
EXTENSIONS: Dict[str, Experiment] = {
    "ablation-two-tier": _on_session(ablations.run_two_tier, **_QUICK_ABLATION),
    "ablation-band-coverage": _on_session(
        ablations.run_band_coverage, **_QUICK_ABLATION
    ),
    "ablation-sensing": _on_session(ablations.run_sensing, **_QUICK_ABLATION),
    "ablation-detectors": _on_session(
        ablations.run_detectors, **_QUICK_ABLATION
    ),
    "ablation-fault-injection": _on_session(
        faults.run, n_cycles=6_000, benchmarks=("swim",), intensities=(0.3,)
    ),
    "lowfreq-resonance": _without_session(extensions.run_lowfreq),
    "convolution-baseline": _on_session(
        ablations.run_convolution, **_QUICK_ABLATION
    ),
    "multiwindow-damping": _on_session(
        ablations.run_multiwindow_damping, **_QUICK_ABLATION
    ),
    "design-space": _without_session(extensions.run_design_space),
}


def _lookup(name: str) -> Experiment:
    """The experiment registered as ``name``; KeyError with suggestions."""
    experiment = EXPERIMENTS.get(name) or EXTENSIONS.get(name)
    if experiment is None:
        known = sorted(EXPERIMENTS) + sorted(EXTENSIONS)
        close = difflib.get_close_matches(name, known, n=3)
        hint = f"; did you mean {' or '.join(map(repr, close))}?" if close else ""
        raise KeyError(f"unknown experiment {name!r}{hint} (choose from {known})")
    return experiment


def select(names: Sequence[str]) -> List[str]:
    """The experiments a command line names, in order, each once.

    ``all`` expands in place to the paper's nine artifacts.  Every other
    name is checked before any experiment runs: an unknown one raises
    :class:`KeyError` with close-match suggestions.
    """
    chosen: List[str] = []
    for name in names:
        if name == "all":
            chosen.extend(sorted(EXPERIMENTS))
        else:
            _lookup(name)
            chosen.append(name)
    return list(dict.fromkeys(chosen))


def run_experiment(
    name: str,
    quick: bool = False,
    session: Optional[Session] = None,
):
    """Run one registered experiment or extension; returns its result.

    The experiment's sweeps run on ``session``, whose resilience
    configures them and whose memo serves every cell it already holds.
    Without one, the experiment gets a fresh session, closed when it
    returns.  An unknown name raises :class:`KeyError` with close-match
    suggestions.
    """
    experiment = _lookup(name)
    if session is None:
        with Session() as own:
            return experiment(quick, own)
    return experiment(quick, session)


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
        "--drain-deadline-s",
        type=float,
        default=None,
        metavar="S",
        help="on SIGTERM/SIGINT, wait S seconds for in-flight cells before"
             " killing the pool and exiting resumable (default 10)",
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
    built from other flags (and an all-default command line leaves the
    session at the default :class:`ResilienceConfig`).
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
    if getattr(args, "drain_deadline_s", None) is not None:
        overrides["drain_deadline_s"] = args.drain_deadline_s
    if getattr(args, "trace_store", None) is not None:
        overrides["trace_store_path"] = args.trace_store
    if not overrides:
        return None
    return ResilienceConfig(**overrides)
