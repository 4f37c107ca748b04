"""Chaos harness: disturb real sweeps, assert they still converge.

Each scenario runs an actual benchmark sweep while sabotaging it with
the injectors from :mod:`repro.faults.chaos` -- SIGKILLing a worker
mid-cell, truncating and bit-flipping the checkpoint between runs,
failing checkpoint fsyncs with ENOSPC/EIO, delivering SIGTERM at a
seeded barrier -- and then checks the crash-safety invariants:

* the sweep always terminates (drained runs raise ``SweepInterrupted``
  with a resumable checkpoint rather than hanging or corrupting state);
* after ``--resume`` the aggregates are byte-identical to an undisturbed
  sequential run (no cell lost, duplicated, or silently altered);
* damaged checkpoints are quarantined, never trusted.

Usage::

    PYTHONPATH=src python tools/chaos.py                # all scenarios
    PYTHONPATH=src python tools/chaos.py --quick        # CI-sized pass
    PYTHONPATH=src python tools/chaos.py --scenario sigterm --seed 7

Exits non-zero if any invariant is violated.  See docs/robustness.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import pathlib
import random
import signal
import sys
import tempfile
import time
import warnings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.core import ResonanceTuningController  # noqa: E402
from repro.errors import SweepInterrupted  # noqa: E402
from repro.faults.chaos import (  # noqa: E402
    KillWorkerOnce,
    flip_bit,
    inject_fsync_faults,
    truncate_file,
)
from repro.sim import (  # noqa: E402
    BenchmarkRunner,
    ResilienceConfig,
    SweepConfig,
    load_checkpoint,
)
from repro.sim.checkpoint import cell_key, spec_digest  # noqa: E402


def tuning_factory(supply, processor):
    """Module-level (picklable) controller factory for worker processes."""
    return ResonanceTuningController(supply, processor)


def fingerprint(summary) -> str:
    return json.dumps(dataclasses.asdict(summary), sort_keys=True)


class Plan:
    """One chaos campaign's shared grid, golden run, and RNG."""

    def __init__(self, quick: bool, seed: int):
        self.config = SweepConfig(
            n_cycles=2000 if quick else 2500, warmup_cycles=200
        )
        self.benchmarks = ("swim", "gzip") if quick else ("swim", "gzip", "parser")
        self.seeds = (None,) if quick else (None, 7)
        self.quick = quick
        self.rng = random.Random(seed)
        self._golden = None

    @property
    def golden(self) -> str:
        """Fingerprint of the undisturbed sequential run (computed once)."""
        if self._golden is None:
            summary = BenchmarkRunner(self.config).sweep(
                tuning_factory, benchmarks=self.benchmarks, seeds=self.seeds
            )
            self._golden = fingerprint(summary)
        return self._golden

    def grid_keys(self, supply_transform=None):
        """The grid's checkpoint keys, as the runner computes them."""
        spec = spec_digest(
            self.config, supply_transform,
            tuning_factory(self.config.supply, self.config.processor),
        )
        return {
            cell_key(spec, name, "resonance-tuning", seed)
            for name in self.benchmarks
            for seed in self.seeds
        }

    def sweep(self, runner, **kwargs):
        return runner.sweep(
            tuning_factory, benchmarks=self.benchmarks, seeds=self.seeds,
            **kwargs
        )


# ----------------------------------------------------------------------
# Scenarios: each returns a list of invariant violations (empty = pass)
# ----------------------------------------------------------------------

def scenario_worker_kill(plan: Plan, tmp: pathlib.Path):
    """SIGKILL the worker running one benchmark mid-cell; the supervisor
    must rebuild the pool, requeue the lost cells, and still converge."""
    problems = []
    ck = tmp / "kill.json"
    marker = tmp / "kill.marker"
    target = plan.rng.choice(plan.benchmarks)
    transform = KillWorkerOnce(str(marker), target, after_cycles=300)
    with BenchmarkRunner(plan.config, supply_transform=transform) as runner:
        summary = plan.sweep(
            runner,
            resilience=ResilienceConfig(workers=2, checkpoint_path=str(ck)),
        )
    if not marker.exists():
        problems.append(f"kill injector never fired for {target!r}")
    if fingerprint(summary) != plan.golden:
        problems.append("aggregates diverged from the undisturbed run")
    if summary.failures:
        problems.append(f"unexpected cell failures: {summary.failures}")
    incidents = getattr(summary, "incidents", ())
    if marker.exists() and not any(
        incident.error_type == "WorkerLostError" for incident in incidents
    ):
        problems.append("worker loss left no incident record")
    if set(load_checkpoint(str(ck))["cells"]) != plan.grid_keys(transform):
        problems.append("checkpoint cells do not match the sweep grid")
    return problems


def scenario_checkpoint_corruption(plan: Plan, tmp: pathlib.Path):
    """Truncate, then bit-flip, the checkpoint between runs; each resume
    must quarantine the damage and converge on the golden aggregates."""
    problems = []
    ck = tmp / "corrupt.json"
    BenchmarkRunner(plan.config).sweep(
        tuning_factory, benchmarks=plan.benchmarks, seeds=plan.seeds,
        resilience=ResilienceConfig(checkpoint_path=str(ck)),
    )

    for damage_round, mutilate in enumerate(
        (
            lambda: truncate_file(str(ck), plan.rng.uniform(0.3, 0.8)),
            lambda: flip_bit(
                str(ck), offset=plan.rng.randrange(ck.stat().st_size)
            ),
        ),
        start=1,
    ):
        mutilate()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            summary = plan.sweep(
                BenchmarkRunner(plan.config),
                resilience=ResilienceConfig(
                    checkpoint_path=str(ck), resume=True
                ),
            )
        label = f"round {damage_round}"
        if fingerprint(summary) != plan.golden:
            problems.append(f"{label}: resumed aggregates diverged")
        quarantines = sorted(tmp.glob("corrupt.json.corrupt-*"))
        if len(quarantines) < damage_round:
            # A flip can land in dead whitespace of an already-valid
            # region only if the file re-parsed cleanly -- it cannot,
            # since every record is digest-checked.
            problems.append(f"{label}: corrupt original was not quarantined")
        if not any("salvage" in str(w.message) for w in caught):
            problems.append(f"{label}: no salvage warning was raised")
        loaded = load_checkpoint(str(ck))
        if not plan.grid_keys() <= set(loaded["cells"]):
            problems.append(f"{label}: resumed checkpoint is missing cells")
    return problems


def scenario_write_faults(plan: Plan, tmp: pathlib.Path):
    """Fail checkpoint fsyncs with ENOSPC then EIO; sweeps must finish
    with correct aggregates, and a later resume must still converge."""
    problems = []
    for name, every, code in (
        ("enospc", 2, errno.ENOSPC),
        ("eio", 3, errno.EIO),
    ):
        ck = tmp / f"{name}.json"
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            with inject_fsync_faults(every=every, error_number=code) as hits:
                summary = plan.sweep(
                    BenchmarkRunner(plan.config),
                    resilience=ResilienceConfig(checkpoint_path=str(ck)),
                )
        if hits["faults"] == 0:
            problems.append(f"{name}: no fsync fault was ever injected")
        if fingerprint(summary) != plan.golden:
            problems.append(f"{name}: aggregates diverged under write faults")
        # Whatever survived on disk is either absent or a valid
        # checkpoint (atomic replace), and a clean resume converges.
        resumed = plan.sweep(
            BenchmarkRunner(plan.config),
            resilience=ResilienceConfig(checkpoint_path=str(ck), resume=True),
        )
        if fingerprint(resumed) != plan.golden:
            problems.append(f"{name}: resume after write faults diverged")
    return problems


def scenario_sigterm(plan: Plan, tmp: pathlib.Path):
    """Deliver SIGTERM at a seeded barrier mid-sweep; the run must drain
    to a checksum-valid checkpoint and resume to the golden aggregates."""
    problems = []
    ck = tmp / "drain.json"
    grid_size = len(plan.benchmarks) * len(plan.seeds)
    fire_after = plan.rng.randrange(max(1, grid_size // 2))
    seen = {"cells": 0}

    def terminate_at_barrier(name, metrics):
        if seen["cells"] == fire_after:
            os.kill(os.getpid(), signal.SIGTERM)
        seen["cells"] += 1

    workers = 1 if plan.quick else 2
    interrupted = None
    t0 = time.monotonic()
    try:
        with BenchmarkRunner(plan.config) as runner:
            plan.sweep(
                runner,
                progress=terminate_at_barrier,
                resilience=ResilienceConfig(
                    workers=workers,
                    checkpoint_path=str(ck),
                    drain_deadline_s=10.0,
                ),
            )
    except SweepInterrupted as stop:
        interrupted = stop
    elapsed = time.monotonic() - t0

    if interrupted is None:
        # With small grids every in-flight cell can finish before the
        # drain check; the invariant then degenerates to a normal run.
        if seen["cells"] != grid_size:
            problems.append("sweep neither completed nor drained")
    else:
        if interrupted.exit_code != 75:
            problems.append(
                f"drain exit code {interrupted.exit_code}, expected 75"
            )
        if elapsed > 60.0:
            problems.append(f"drain took {elapsed:.0f}s -- not a drain")
        shutdown = pathlib.Path(f"{ck}.shutdown.json")
        if not shutdown.exists():
            problems.append("no shutdown summary was written")
        else:
            note = json.loads(shutdown.read_text())
            if note["signal"] != "SIGTERM" or not note["resumable"]:
                problems.append(f"bad shutdown summary: {note}")
        load_checkpoint(str(ck))  # must be checksum-valid, not salvage

    resumed = plan.sweep(
        BenchmarkRunner(plan.config),
        resilience=ResilienceConfig(checkpoint_path=str(ck), resume=True),
    )
    if fingerprint(resumed) != plan.golden:
        problems.append("resume after drain diverged from the golden run")
    if set(load_checkpoint(str(ck))["cells"]) != plan.grid_keys():
        problems.append("final checkpoint does not match the sweep grid")
    return problems


SCENARIOS = {
    "worker-kill": scenario_worker_kill,
    "checkpoint-corruption": scenario_checkpoint_corruption,
    "write-faults": scenario_write_faults,
    "sigterm": scenario_sigterm,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Disturb real sweeps and verify crash-safety invariants."
    )
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        help="run only this scenario (repeatable; default: all)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller grid and cycle counts (the CI configuration)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed for barrier/corruption-site choices (default 0)",
    )
    args = parser.parse_args(argv)
    names = args.scenario or sorted(SCENARIOS)

    plan = Plan(quick=args.quick, seed=args.seed)
    failed = 0
    for name in names:
        t0 = time.monotonic()
        with tempfile.TemporaryDirectory(prefix=f"chaos-{name}-") as tmp:
            problems = SCENARIOS[name](plan, pathlib.Path(tmp))
        status = "ok" if not problems else "FAILED"
        print(f"{name:24s} {status}  ({time.monotonic() - t0:.1f}s)")
        for problem in problems:
            print(f"    - {problem}")
        failed += bool(problems)
    if failed:
        print(f"\n{failed} scenario(s) violated crash-safety invariants")
        return 1
    print(f"\nall {len(names)} scenario(s) held their invariants")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
