"""Full verification suite, organised as selectable hooks.

Run everything (the CI configuration)::

    PYTHONPATH=src python tools/verify_all.py

List the hooks, or run a subset while iterating locally::

    PYTHONPATH=src python tools/verify_all.py --list
    PYTHONPATH=src python tools/verify_all.py --only kernel --only replay

Each hook raises (or ``SystemExit``s) on an invariant violation; the
suite reports per-hook timing and fails if any hook failed.
"""
import argparse
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

from repro.config import TABLE1_TUNING
from repro.core import ResonanceTuningController
from repro.sim import BenchmarkRunner, ResilienceConfig, SweepConfig
from repro.uarch import SPEC2K, PAPER_IPC, VIOLATING_NAMES

TRIO = ("swim", "parser", "gzip")


def factory(supply, proc):
    return ResonanceTuningController(supply, proc, TABLE1_TUNING)


def fingerprint(summary):
    return json.dumps(dataclasses.asdict(summary), sort_keys=True)


def hook_grid():
    """All 26 apps, base + tuned, 60k cycles, vs the paper's behaviour."""
    runner = BenchmarkRunner(SweepConfig(n_cycles=60000))
    bad = []
    for name in sorted(SPEC2K):
        base = runner.run_base(name)
        m = runner.compare(name, factory)
        is_viol = name in VIOLATING_NAMES
        ok_base = (base.violation_fraction > 1e-4) == is_viol
        ok_tuned = m.violation_fraction <= 2e-5
        flag = "" if (ok_base and ok_tuned) else "  <-- PROBLEM"
        if flag: bad.append(name)
        print(f"{name:9s} IPC={base.ipc:4.2f}/{PAPER_IPC[name]:4.2f} baseViol={base.violation_fraction:.2e} "
              f"tunedViol={m.violation_fraction:.2e} slow={m.slowdown:.3f} ED={m.energy_delay:.3f} "
              f"L1={m.first_level_fraction:.3f} L2={m.second_level_fraction:.4f}{flag}")
    print(f"{len(bad)} problems: {bad}")
    if bad:
        raise SystemExit(f"grid verification failed for {bad}")


def hook_faults():
    """Quick fault-injection campaign still renders and converges."""
    from repro.experiments.faults import run as run_fault_injection
    result = run_fault_injection(
        n_cycles=6000, benchmarks=("swim",), intensities=(0.3,)
    )
    print(result.render())


def hook_kernel():
    """Vectorized fast path vs REPRO_KERNEL=0: byte-identical aggregates."""
    from repro.core import kernel as core_kernel
    assert core_kernel.kernel_enabled(), "verify_all must run with the kernel on"
    kernel_sweep = BenchmarkRunner(SweepConfig(n_cycles=6000)).sweep(
        factory, benchmarks=TRIO
    )
    os.environ[core_kernel.KERNEL_ENV] = "0"
    try:
        scalar_sweep = BenchmarkRunner(SweepConfig(n_cycles=6000)).sweep(
            factory, benchmarks=TRIO
        )
    finally:
        os.environ.pop(core_kernel.KERNEL_ENV, None)
    match = fingerprint(kernel_sweep) == fingerprint(scalar_sweep)
    print(f"byte-identical aggregates: {match}")
    if not match:
        raise SystemExit("vectorized kernel diverged from the scalar cycle loop")


def hook_replay():
    """Trace store cold+warm vs full simulation: byte-identical, warm hits."""
    plain_sweep = BenchmarkRunner(SweepConfig(n_cycles=6000)).sweep(
        factory, benchmarks=TRIO
    )
    with tempfile.TemporaryDirectory() as store_dir:
        store_resilience = ResilienceConfig(trace_store_path=store_dir)
        cold_sweep = BenchmarkRunner(SweepConfig(n_cycles=6000)).sweep(
            factory, benchmarks=TRIO, resilience=store_resilience
        )
        warm_sweep = BenchmarkRunner(SweepConfig(n_cycles=6000)).sweep(
            factory, benchmarks=TRIO, resilience=store_resilience
        )
    match = (
        fingerprint(plain_sweep) == fingerprint(cold_sweep) == fingerprint(warm_sweep)
    )
    warm_hits = warm_sweep.timings.get("trace_hits", 0.0)
    print(f"byte-identical aggregates: {match}  warm replay hits: {warm_hits:.0f}")
    if not match:
        raise SystemExit("trace replay diverged from the full simulation")
    if not warm_hits:
        raise SystemExit("warm trace store produced no replay hits")


def hook_parallel():
    """Pool backend (workers=2) vs sequential: byte-identical aggregates."""
    sequential = BenchmarkRunner(SweepConfig(n_cycles=6000)).sweep(
        factory, benchmarks=TRIO
    )
    with BenchmarkRunner(SweepConfig(n_cycles=6000)) as parallel_runner:
        parallel = parallel_runner.sweep(
            factory, benchmarks=TRIO, resilience=ResilienceConfig(workers=2)
        )
    match = fingerprint(sequential) == fingerprint(parallel)
    print(f"byte-identical aggregates: {match}")
    if not match:
        raise SystemExit("parallel backend diverged from sequential results")


def hook_chaos():
    """The chaos harness (quick): disturbed sweeps converge on --resume."""
    chaos_tool = pathlib.Path(__file__).with_name("chaos.py")
    status = subprocess.run([sys.executable, str(chaos_tool), "--quick"]).returncode
    if status != 0:
        raise SystemExit("chaos harness found a crash-safety violation")


#: Execution order matters only for readability of the output: cheap
#: equivalence hooks first, the heavyweight grid and chaos passes last.
HOOKS = {
    "kernel": hook_kernel,
    "replay": hook_replay,
    "parallel": hook_parallel,
    "faults": hook_faults,
    "grid": hook_grid,
    "chaos": hook_chaos,
}


def select_hooks(only=None):
    """The (name, hook) pairs a ``--only`` selection resolves to.

    Preserves suite order whatever order the selectors were given in;
    unknown names raise ``ValueError`` naming the valid choices.
    """
    if not only:
        return list(HOOKS.items())
    unknown = sorted(set(only) - set(HOOKS))
    if unknown:
        raise ValueError(
            f"unknown hook(s) {unknown}; choose from {sorted(HOOKS)}"
        )
    wanted = set(only)
    return [(name, hook) for name, hook in HOOKS.items() if name in wanted]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the full verification suite, or selected hooks."
    )
    parser.add_argument(
        "--list", action="store_true",
        help="print the hook names and exit",
    )
    parser.add_argument(
        "--only", action="append", metavar="HOOK",
        help="run only this hook (repeatable; default: all)",
    )
    args = parser.parse_args(argv)
    if args.list:
        for name, hook in HOOKS.items():
            summary = (hook.__doc__ or "").strip().splitlines()[0]
            print(f"{name:10s} {summary}")
        return 0
    try:
        selected = select_hooks(args.only)
    except ValueError as error:
        parser.error(str(error))

    failed = []
    for name, hook in selected:
        print(f"\n--- {name}: {(hook.__doc__ or '').strip().splitlines()[0]} ---")
        t0 = time.time()
        try:
            hook()
        except SystemExit as stop:
            print(f"FAILED: {stop}")
            failed.append(name)
        print(f"({time.time() - t0:.0f}s)")
    if failed:
        print(f"\n{len(failed)} hook(s) failed: {failed}")
        return 1
    print(f"\nall {len(selected)} hook(s) passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
