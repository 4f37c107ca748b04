"""Top-level command-line interface: ``python -m repro <command>``.

Commands:

* ``analyze``   -- resonance characteristics of a power supply;
* ``calibrate`` -- the Section 2.1.3 calibration (threshold, tolerance);
* ``classify``  -- run benchmarks on the base processor and classify them;
* ``compare``   -- run one technique against the base on chosen benchmarks;
* ``experiment``-- regenerate paper tables and figures, on one session
  (see repro.experiments).

All circuit parameters default to the Table 1 design point and can be
overridden with flags, so the tool doubles as a quick design-space probe.
"""

from __future__ import annotations

import argparse
import functools
import os
import platform
import resource
import sys
import time
from dataclasses import replace
from typing import Optional, Sequence

from repro import obs
from repro.config import PowerSupplyConfig, TABLE1_SUPPLY, TuningConfig
from repro.errors import ReproError, SweepInterrupted

__all__ = ["main", "build_parser"]


def _supply_from_args(args) -> PowerSupplyConfig:
    return replace(
        TABLE1_SUPPLY,
        resistance_ohms=args.resistance_uohm * 1e-6,
        inductance_henries=args.inductance_ph * 1e-12,
        capacitance_farads=args.capacitance_nf * 1e-9,
        clock_hz=args.clock_ghz * 1e9,
    )


def _add_supply_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--resistance-uohm", type=float, default=375.0,
                        help="supply impedance R in micro-ohms")
    parser.add_argument("--inductance-ph", type=float, default=1.69,
                        help="die-to-package inductance L in picohenries")
    parser.add_argument("--capacitance-nf", type=float, default=1500.0,
                        help="on-die decoupling capacitance C in nanofarads")
    parser.add_argument("--clock-ghz", type=float, default=10.0,
                        help="processor clock in gigahertz")


def _cmd_analyze(args) -> int:
    from repro.power.rlc import RLCAnalysis

    analysis = RLCAnalysis(_supply_from_args(args))
    if not analysis.is_underdamped:
        print("circuit is not underdamped: no resonance problem")
        return 0
    band = analysis.band
    print(f"resonant frequency : {analysis.resonant_frequency_hz / 1e6:.2f} MHz"
          f" ({analysis.resonant_period_cycles} cycles)")
    print(f"quality factor Q   : {analysis.quality_factor:.3f}")
    print(f"resonance band     : {band.low_hz / 1e6:.2f}-"
          f"{band.high_hz / 1e6:.2f} MHz"
          f" ({band.min_period_cycles}-{band.max_period_cycles} cycles)")
    print(f"damping rate       : {analysis.damping_coefficient:.3e} nepers/s")
    print(f"dissipation/period : {analysis.dissipation_per_period:.1%}")
    return 0


def _cmd_calibrate(args) -> int:
    from repro.power.calibration import calibrate

    result = calibrate(_supply_from_args(args))
    print(f"resonant current variation threshold : {result.threshold_amps:.0f} A")
    print(f"band-edge tolerable variation        : "
          f"{result.band_edge_tolerable_amps:.0f} A")
    print(f"maximum repetition tolerance         : "
          f"{result.max_repetition_tolerance} half-waves")
    print(f"second-level quiet time              : "
          f"{result.second_level_response_cycles} cycles")
    return 0


def _cmd_classify(args) -> int:
    from repro.experiments import table2

    result = table2.run(n_cycles=args.cycles, benchmarks=args.benchmarks or None)
    print(result.render())
    return 0


def _technique_factory(args):
    from repro.baselines.convolution import ConvolutionController
    from repro.baselines.damping import PipelineDampingController
    from repro.baselines.voltage_threshold import VoltageThresholdController
    from repro.core.tuning import ResonanceTuningController

    name = args.technique
    if name == "tuning":
        return functools.partial(
            ResonanceTuningController,
            tuning_config=TuningConfig(
                initial_response_time=args.response_time
            ),
        )
    if name == "voltage-threshold":
        return functools.partial(
            VoltageThresholdController,
            target_threshold_volts=args.threshold_mv * 1e-3,
            sensor_noise_pp_volts=args.noise_mv * 1e-3,
            delay_cycles=args.delay,
        )
    if name == "damping":
        return functools.partial(
            PipelineDampingController, delta_amps=args.delta_amps
        )
    if name == "convolution":
        return functools.partial(
            ConvolutionController, estimate_gain=args.estimate_gain
        )
    raise ReproError(f"unknown technique {name}")  # pragma: no cover


def _cmd_compare(args) -> int:
    from repro.sim.runner import (
        BenchmarkRunner,
        ResilienceConfig,
        SweepConfig,
    )

    factory = _technique_factory(args)
    benchmarks = args.benchmarks or ["swim", "parser", "fma3d"]
    with BenchmarkRunner(SweepConfig(n_cycles=args.cycles)) as runner:
        summary = runner.sweep(
            factory,
            benchmarks=benchmarks,
            resilience=ResilienceConfig(
                workers=args.workers,
                checkpoint_path=args.checkpoint,
                trace_store_path=args.trace_store,
            ),
        )
    print(f"{'benchmark':10s} {'base viol':>10s} {'tech viol':>10s}"
          f" {'slowdown':>9s} {'E*D':>7s}")
    for metrics in summary.per_benchmark:
        print(f"{metrics.benchmark:10s} {metrics.base_violation_fraction:10.2e}"
              f" {metrics.violation_fraction:10.2e}"
              f" {metrics.slowdown:9.3f} {metrics.energy_delay:7.3f}")
    return 0


def _cmd_obs_report(args) -> int:
    from repro.obs import report as obs_report

    argv = ["--trace", args.trace, "--out", args.out, "--top", str(args.top)]
    if args.metrics:
        argv += ["--metrics", args.metrics]
    if args.profile:
        argv += ["--profile", args.profile]
    return obs_report.main(argv)


def _cmd_experiment(args) -> int:
    """Run the named experiments on one session, which closes at the end.

    Stdout holds the rendered artifacts only.  With ``--out``, each one is
    also saved there with ``claims.txt``, the verdicts of the paper's
    claims about them, and stderr logs the host (CPU count, Python and
    NumPy versions), each experiment's wall time and the peak RSS, and the
    claims' aggregate verdict.
    """
    import numpy

    from repro.experiments import claims
    from repro.experiments.persistence import save_result
    from repro.experiments.registry import (
        resilience_from_args,
        run_experiment,
        select,
    )
    from repro.sim.runner import Session

    def log(line: str) -> None:
        if args.out is not None:
            print(f"=== {line} ===", file=sys.stderr, flush=True)

    names = select(args.names)
    log(f"host: cpu_count {os.cpu_count()}, Python"
        f" {platform.python_version()}, NumPy {numpy.__version__}")
    results = {}
    with Session(resilience_from_args(args)) as session:
        for name in names:
            started = time.perf_counter()
            result = results[name] = run_experiment(
                name, quick=args.quick, session=session
            )
            print(result.render())
            print()
            if args.out is not None:
                save_result(result, args.out, name)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            log(f"{name} done in {time.perf_counter() - started:.0f}s,"
                f" peak RSS {peak_mb:.0f} MB")
    if args.out is not None:
        verdicts = claims.evaluate(results, quick=args.quick)
        claims.write(verdicts, args.out)
        log(claims.summary_line(verdicts))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Resonance tuning for inductive noise (ISCA 2004 repro)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="resonance characteristics")
    _add_supply_flags(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    calibrate = commands.add_parser("calibrate", help="Section 2.1.3 calibration")
    _add_supply_flags(calibrate)
    calibrate.set_defaults(func=_cmd_calibrate)

    classify = commands.add_parser("classify", help="Table 2 classification")
    classify.add_argument("benchmarks", nargs="*", help="subset (default all)")
    classify.add_argument("--cycles", type=int, default=60_000)
    classify.set_defaults(func=_cmd_classify)

    compare = commands.add_parser("compare", help="technique vs base processor")
    compare.add_argument(
        "technique",
        choices=["tuning", "voltage-threshold", "damping", "convolution"],
    )
    compare.add_argument("benchmarks", nargs="*", help="subset (default demo trio)")
    compare.add_argument("--cycles", type=int, default=40_000)
    compare.add_argument("--response-time", type=int, default=100,
                         help="tuning: initial response time")
    compare.add_argument("--threshold-mv", type=float, default=30.0,
                         help="voltage-threshold: target threshold (mV)")
    compare.add_argument("--noise-mv", type=float, default=0.0,
                         help="voltage-threshold: sensor noise p-p (mV)")
    compare.add_argument("--delay", type=int, default=0,
                         help="voltage-threshold: sensor delay (cycles)")
    compare.add_argument("--delta-amps", type=float, default=13.0,
                         help="damping: allowed window variation (A)")
    compare.add_argument("--estimate-gain", type=float, default=1.0,
                         help="convolution: systematic estimate gain")
    compare.add_argument("--workers", type=int, default=1,
                         help="worker processes for the comparison sweep")
    compare.add_argument("--checkpoint", metavar="PATH", default=None,
                         help="JSON checkpoint updated after every completed"
                              " cell (also written as PATH.summary.json)")
    compare.add_argument("--trace-store", metavar="PATH", default=None,
                         help="content-addressed trace record/replay store:"
                              " base cells record their current trace once"
                              " and replay it bit-exactly afterwards")
    obs.add_observability_flags(compare)
    compare.set_defaults(func=_cmd_compare)

    obs_cmd = commands.add_parser(
        "obs", help="observability tooling (see docs/observability.md)"
    )
    obs_commands = obs_cmd.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_commands.add_parser(
        "report",
        help="render a self-contained HTML ops report from trace/metrics/"
             "profile artifacts",
    )
    obs_report.add_argument("--trace", required=True, metavar="PATH",
                            help="merged Chrome trace JSON (--trace-out)")
    obs_report.add_argument("--metrics", metavar="PATH", default=None,
                            help="metrics JSON (--metrics-out)")
    obs_report.add_argument("--profile", metavar="PATH", default=None,
                            help="speedscope profile JSON (--profile-out)")
    obs_report.add_argument("--out", metavar="PATH", default="obs_report.html",
                            help="output HTML path (default obs_report.html)")
    obs_report.add_argument("--top", type=int, default=10,
                            help="rows in the slowest-cell/stack tables")
    obs_report.set_defaults(func=_cmd_obs_report)

    experiment = commands.add_parser(
        "experiment", help="regenerate paper artifacts on one session"
    )
    experiment.add_argument(
        "names", nargs="+", metavar="NAME",
        help="experiment ids, e.g. table3 figure5, or 'all' for the paper's"
             " nine artifacts",
    )
    experiment.add_argument(
        "--quick", action="store_true",
        help="reduced cycles and benchmark subset for a fast pass",
    )
    experiment.add_argument(
        "--out", metavar="DIR", default=None,
        help="also save each artifact (text and SVG charts) and claims.txt,"
             " the verdicts of the paper's claims about them, in DIR, and"
             " log the host and each experiment's time and peak RSS on"
             " stderr",
    )
    from repro.experiments.registry import add_resilience_flags

    add_resilience_flags(experiment)
    obs.add_observability_flags(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    observing = obs.configure_from_args(args)
    logger = obs.get_logger("cli")
    try:
        return args.func(args)
    except SweepInterrupted as stop:
        # Graceful drain: completed cells are checkpointed; exit
        # EX_TEMPFAIL so callers know a --resume finishes the run.
        logger.warning("interrupted: %s", stop)
        return stop.exit_code
    except KeyboardInterrupt:
        # Ctrl-C outside a sweep (inside one, the drain turns it into
        # SweepInterrupted above): exit 128+SIGINT like a killed shell
        # command instead of spilling a traceback.
        logger.warning("interrupted by user")
        return 130
    finally:
        if observing:
            for path in obs.finalize(
                metadata={"command": getattr(args, "command", None)}
            ):
                logger.info("observability artifact written: %s", path)
