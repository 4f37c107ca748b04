"""End-to-end benchmark: four sweep workloads, host-time metrics, layer trace.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                 [--seconds S] [--trace 0|1]

Each workload runs in fresh subprocesses (``child.py``), one at a time,
with a pinned environment: first a batch of untraced processes for the
end-to-end metrics, then a batch that alternates untraced and traced
passes for the per-layer metrics.  Every metric is printed with its
unit, the outputs are checked against ``expected.json`` (at the default
seed) and against each other, and everything lands in
``out/result.json``, with the traced spans in ``out/trace.json``.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the ``metrics`` that ``BENCHMARK.json``
lists.  The exit code is nonzero when any output check failed.

``BENCHMARK.json``'s command is invoked once per workload and batch, as
``--workload W --seed N --seconds S --trace 0|1``: ``--trace 0`` runs
only the untraced batch and reports the ``end_to_end`` metrics,
``--trace 1`` only the traced batch and the ``per_layer`` metrics, and
``--seconds`` is the run's timed budget (default: ``run_seconds``).

All times are host times.  Simulated statistics enter only through the
output fingerprint.  See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYERS, PER_CYCLE_LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

DEFAULT_SEED = 0
#: Fresh subprocesses per workload and batch; set-up is their median.
PROCESSES = 3
#: Cells per pass below which p75 has fewer than ten cells beyond it.
MIN_CELL_SAMPLES = 40
#: Time a subprocess may take beyond its share of ``--seconds``: set-up,
#: the pass that is always made, and a slow host.
PROCESS_MARGIN_S = 60
#: Section of ``BENCHMARK.json`` each ``--trace`` value reports.
SECTIONS = {0: "end_to_end", 1: "per_layer"}


class ProcessFailed(Exception):
    """A workload subprocess timed out, crashed or printed no report."""


def cell_percentiles(gaps):
    """p50 and p75 of cell times; p75 needs ten samples beyond it."""
    if len(gaps) < MIN_CELL_SAMPLES:
        raise ValueError(
            f"{len(gaps)} cell samples; at least {MIN_CELL_SAMPLES} are"
            f" needed for a p75 with ten samples beyond it"
        )
    _, p50, p75 = statistics.quantiles(gaps, n=4, method="inclusive")
    return p50, p75


def process_env() -> dict:
    """The pinned environment of every workload subprocess."""
    env = dict(os.environ)
    env.pop("REPRO_KERNEL", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_process(workload, seed, seconds, trace, index) -> dict:
    """Subprocess ``index`` of a batch, given ``seconds`` of timed
    passes; returns its JSON report or raises :class:`ProcessFailed`."""
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--index", str(index),
    ]
    timeout = seconds + PROCESS_MARGIN_S
    with subprocess.Popen(
        command, cwd=ROOT, env=process_env(), stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as process:
        try:
            stdout, _ = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            stdout = None
        finally:
            # The session holds the subprocess and any pool workers it left.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    where = f"{workload} subprocess {index} (trace {trace})"
    if stdout is None:
        raise ProcessFailed(f"{where} ran past its {timeout:.0f} s timeout")
    if process.returncode != 0:
        raise ProcessFailed(f"{where} exited with {process.returncode}")
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ProcessFailed(f"{where} printed no report") from None


def end_to_end(reports) -> dict:
    """Untraced metrics of one workload: name -> (value, unit).

    Every untraced pass of every process counts, including those of a
    traced batch.  Every pass runs the identical grid, so the n-th gap
    of each pass times the same cell.  A cell's time is its median over
    the passes, which keeps a disturbance of one pass out of the
    percentiles.  Peak memory comes from the untraced batch only: the
    tracer keeps the objects it reads counters from alive.
    """
    first = reports[0]
    untraced = [r for r in reports if not r["traced"]]
    passes = [p for r in reports for p in r["passes"] if not p["traced"]]
    wall = statistics.median(p["wall_s"] for p in passes)
    cells = [
        statistics.median(gaps) for gaps in zip(*(p["gaps_s"] for p in passes))
    ]
    p50, p75 = cell_percentiles(cells)
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in reports), "s"),
        "sim_cycles_per_s": (
            first["cells"] * first["cycles_per_cell"] / wall, "cycles/s"
        ),
        "cell_p50_ms": (1e3 * p50, "ms"),
        "cell_p75_ms": (1e3 * p75, "ms"),
        "cell_samples": (len(cells), "count"),
        "passes": (len(passes), "count"),
        "peak_rss_mb": (
            statistics.median(r["peak_rss_mb"] for r in untraced), "MB"
        ),
    }


def per_layer(reports) -> dict:
    """Traced metrics of one workload, per traced pass.

    Returns name -> (value, unit).
    """
    traced = [p for r in reports for p in r["passes"] if p["traced"]]
    untraced = [p for r in reports for p in r["passes"] if not p["traced"]]
    n = len(traced)
    wall = sum(p["wall_s"] for p in traced)
    metrics = {}
    attributed = 0.0
    for layer in LAYERS:
        calls = sum(
            r["layers"].get(layer, {}).get("calls", 0) for r in reports
        )
        self_s = sum(
            r["layers"].get(layer, {}).get("self_s", 0.0) for r in reports
        )
        attributed += self_s
        metrics[f"{layer}.calls"] = (calls / n, "count")
        metrics[f"{layer}.self_s"] = (self_s / n, "s")
        metrics[f"{layer}.share"] = (self_s / wall, "ratio")
        if layer in PER_CYCLE_LAYERS:
            metrics[f"{layer}.us_per_call"] = (
                1e6 * self_s / calls if calls else 0.0, "us"
            )
    metrics["unattributed.share"] = (1.0 - attributed / wall, "ratio")
    metrics["trace_overhead"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced) - 1.0,
        "ratio",
    )
    counts = {
        name: sum(r["counts"][name] for r in reports) / n
        for name in reports[0]["counts"]
    }
    for name, value in counts.items():
        metrics[name] = (value, "count")
    events = counts["core.detector.events"]
    comparisons = counts["core.detector.comparisons"]
    metrics["core.detector.event_ratio"] = (
        events / comparisons if comparisons else 0.0, "ratio"
    )
    cycles = counts["core.kernel.cycles"]
    metrics["core.kernel.ns_per_cycle"] = (
        1e9 * metrics["core.kernel.self_s"][0] / cycles if cycles else 0.0,
        "ns",
    )
    lookups = counts["trace.store.hits"] + counts["trace.store.misses"]
    metrics["trace.store.hit_ratio"] = (
        counts["trace.store.hits"] / lookups if lookups else 0.0, "ratio"
    )
    for name in ("checkpoint_io_s", "execute_s"):
        metrics[f"sim.runner.{name}"] = (
            sum(p[name] for p in traced) / n, "s"
        )
    worker_cpu = sum(p["worker_cpu_s"] for p in traced)
    metrics["sim.backends.worker_cpu_s"] = (worker_cpu / n, "s")
    metrics["sim.backends.worker_util"] = (
        worker_cpu / (reports[0]["workers"] * wall), "ratio"
    )
    return metrics


def check_outputs(workload: str, seed: int, reports, expected: dict) -> dict:
    """Compare every pass's fingerprint with the others and, at the
    default seed, with ``expected.json``; count failed cells."""
    passes = [p for r in reports for p in r["passes"]]
    cells = reports[0]["cells"]
    attempted = cells * len(passes)
    failed = cells * sum(1 for p in passes if p["problems"])
    fingerprints = sorted({p["fingerprint"] for p in passes})
    mismatches = []
    if len(fingerprints) > 1:
        mismatches.append(f"passes disagree: {len(fingerprints)} fingerprints")
    if seed == DEFAULT_SEED and fingerprints != [expected.get(workload)]:
        mismatches.append(
            f"fingerprint differs from expected.json"
            f" ({expected.get(workload)})"
        )
    if mismatches:
        failed = attempted
    return {
        "fingerprint": fingerprints[0] if len(fingerprints) == 1 else None,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": sorted({m for p in passes for m in p["problems"]})
        + mismatches,
    }


def chrome_events(report: dict, label: str, t0_unix: float) -> list:
    """A subprocess's spans as Chrome trace events (microseconds)."""
    pid = report["pid"]
    offset = report["epoch_unix"] - t0_unix
    events = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
               "args": {"name": label}}]
    for span in report["spans"]:
        events.append({
            "ph": "X", "name": span["name"], "cat": span["cat"],
            "pid": pid, "tid": 0,
            "ts": 1e6 * (offset + span["start"]), "dur": 1e6 * span["dur"],
            "args": dict(span["args"], span_id=span["id"],
                         parent_id=span["parent"]),
        })
    return events


def git_commit():
    """HEAD of the checkout's own ``.git``, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")


def measure_workload(workload, seed, seconds, traces, expected, t0_unix):
    """Run one batch of processes per ``traces`` value; print the
    workload's metrics and check its outputs.

    Returns the workload's ``result.json`` entry, its metrics per
    ``BENCHMARK.json`` section, its trace events and its reports.  A
    failed process ends the workload: it counts as one failed attempt
    and reports no metrics.
    """
    batches = {}
    try:
        for trace in traces:
            batches[trace] = [
                run_process(workload, seed, seconds / PROCESSES, trace, index)
                for index in range(PROCESSES)
            ]
    except ProcessFailed as failure:
        print(f"== {workload}: FAILED: {failure}")
        check = {"fingerprint": None, "attempted": 1, "failed": 1,
                 "error_rate": 1.0, "problems": [str(failure)]}
        return {"check": check}, {}, [], []
    reports = [report for batch in batches.values() for report in batch]
    sections, events = {}, []
    if 0 in batches:
        sections["end_to_end"] = end_to_end(reports)
    if 1 in batches:
        sections["per_layer"] = per_layer(batches[1])
        for k, report in enumerate(batches[1]):
            events += chrome_events(report, f"{workload} #{k}", t0_unix)
    entry = {}
    for section, metrics in sections.items():
        entry[section] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        }
        print_metrics(f"== {workload}: {section}", metrics)
    check = entry["check"] = check_outputs(workload, seed, reports, expected)
    entry["pass_wall_s"] = [
        {"traced": p["traced"], "wall_s": p["wall_s"]}
        for r in reports for p in r["passes"]
    ]
    verdict = "; ".join(check["problems"]) or "ok"
    print(f"== {workload}: fingerprint {check['fingerprint']}"
          f" error_rate {check['error_rate']:.6g} ratio ({verdict})")
    return entry, sections, events, reports


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"error: {spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed seconds per workload and batch")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: untraced batch only, 1: traced batch only"
                             " (default: both)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no simulator sources under {ROOT / 'src'}")

    expected = json.loads((HERE / "expected.json").read_text())
    workloads = [args.workload] if args.workload else names
    traces = [args.trace] if args.trace is not None else list(SECTIONS)
    t0_unix = time.time()
    results, events, line_metrics = {}, [], {}
    attempted = failed = 0
    numpy_version = None
    for workload in workloads:
        entry, sections, workload_events, reports = measure_workload(
            workload, args.seed, args.seconds, traces, expected, t0_unix
        )
        results[workload] = entry
        events += workload_events
        if reports:
            numpy_version = reports[0]["numpy"]
        attempted += entry["check"]["attempted"]
        failed += entry["check"]["failed"]
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        for section, metrics in sections.items():
            for item in spec[section]:
                value, unit = metrics[item["name"]]
                line_metrics[prefix + item["name"]] = {
                    "value": value, "unit": unit,
                }

    OUT.mkdir(exist_ok=True)
    result = {
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "platform": platform.platform(),
            "git_commit": git_commit(),
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "processes": PROCESSES,
        "workloads": results,
    }
    (OUT / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    (OUT / "trace.json").write_text(json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}
    ))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": line_metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
