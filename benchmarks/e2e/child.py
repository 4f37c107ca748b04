"""Run one workload in this fresh process and print one JSON report line.

``run.py`` starts this script once per measured subprocess; set-up time
counts from the first statement below, before ``repro`` is imported.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

WORK_ROOT = Path(__file__).resolve().parent / "out" / "work"


def measure(
    workload: workloads.Workload, seconds: float, trace: bool, index: int
) -> dict:
    """Run timed passes, at least one, until another would end past
    ``seconds``.

    With ``trace``, passes alternate between untraced and traced, and
    the process ``index`` within its run picks which comes first.  So the
    three processes of a traced run make both kinds even when each has
    time for a single pass, and the tracing overhead compares passes of
    the same inputs.
    """
    counters = layers.SimulatorCounters()
    tracer = (
        layers.Tracer(layers.simulator_entry_points(counters))
        if trace else None
    )
    passes = []
    started = time.perf_counter()
    with (
        tracer.span(f"workload {workload.name}") if tracer
        else contextlib.nullcontext()
    ):
        while True:
            traced = tracer if (len(passes) + index) % 2 == 1 else None
            passes.append(run_pass(workload, traced, len(passes)))
            elapsed = time.perf_counter() - started
            if elapsed * (1 + 1 / len(passes)) > seconds:
                break
    report = {"passes": passes}
    if tracer is not None:
        counts = counters.totals()
        counts["sim.runner.base_cache_hits"] = tracer.leaf_calls(
            "BenchmarkRunner.run_base"
        )
        report.update(
            layers=tracer.layer_totals(),
            counts=counts,
            spans=tracer.spans,
            epoch_unix=tracer.epoch_unix,
        )
    return report


def run_pass(workload: workloads.Workload, tracer, index: int) -> dict:
    """One pass of the grid, traced when ``tracer`` is given."""
    clock = workloads.CellClock()
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    if tracer is None:
        outputs = workload.run_pass(clock)
    else:
        with tracer.installed(), tracer.span(f"pass {index}"):
            outputs = workload.run_pass(clock)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    timings = [getattr(output, "timings", {}) for output in outputs]
    return {
        "traced": tracer is not None,
        "wall_s": wall,
        "gaps_s": clock.gaps(workload.workers),
        "fingerprint": workloads.fingerprint(outputs),
        "problems": workload.verify(outputs),
        "worker_cpu_s": (after.ru_utime + after.ru_stime)
        - (before.ru_utime + before.ru_stime),
        "checkpoint_io_s": sum(t.get("checkpoint_io", 0.0) for t in timings),
        "execute_s": sum(t.get("execute", 0.0) for t in timings),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--index", type=int, required=True,
                        help="this process's position within its run")
    args = parser.parse_args(argv)

    workdir = WORK_ROOT / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = workloads.BUILDERS[args.workload](args.seed, str(workdir))
        setup_s = time.perf_counter() - STARTED
        report = measure(
            workload, args.seconds, bool(args.trace), args.index
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    report.update(
        workload=workload.name,
        cells=workload.cells,
        cycles_per_cell=workload.cycles_per_cell,
        workers=workload.workers,
        traced=bool(args.trace),
        setup_s=setup_s,
        peak_rss_mb=peak_kib / 1024,
        pid=os.getpid(),
        numpy=numpy.__version__,
    )
    print(json.dumps(report))


if __name__ == "__main__":
    main()
