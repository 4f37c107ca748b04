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
from repro.sim.checkpoint import cell_key  # noqa: E402


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

    def grid_keys(self, ordinal: int = 0):
        return {
            cell_key(ordinal, name, "resonance-tuning", seed)
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
    if set(load_checkpoint(str(ck))["cells"]) != plan.grid_keys():
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


# ----------------------------------------------------------------------
# Service chaos: the HTTP serving tier under process and client failures
# ----------------------------------------------------------------------

class ServeHarness:
    """One ``repro serve`` subprocess on an ephemeral port.

    The server is a real ``python -m repro serve`` process (not an
    in-process service), so ``kill -9`` scenarios exercise the same crash
    surface production would: no atexit handlers, no flushed buffers, no
    mercy.
    """

    def __init__(self, data_dir: pathlib.Path, **flags):
        self.data_dir = pathlib.Path(data_dir)
        self.ready_file = self.data_dir / "ready.json"
        self.flags = flags
        self.proc = None
        self.base_url = None

    def start(self, timeout_s: float = 30.0) -> "ServeHarness":
        import subprocess

        if self.ready_file.exists():
            self.ready_file.unlink()
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}:{env.get('PYTHONPATH', '')}".rstrip(":")
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--data-dir", str(self.data_dir),
            "--port", "0",
            "--ready-file", str(self.ready_file),
        ]
        for flag, value in self.flags.items():
            argv.extend([f"--{flag.replace('_', '-')}", str(value)])
        self.proc = subprocess.Popen(argv, env=env)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited {self.proc.returncode} before ready"
                )
            try:
                info = json.loads(self.ready_file.read_text())
                self.base_url = info["url"]
                return self
            except (OSError, ValueError, KeyError):
                time.sleep(0.05)
        raise RuntimeError("server never wrote its ready file")

    def request(self, method, path, body=None, headers=None, timeout=10.0):
        """(status, headers, parsed JSON) of one request."""
        import urllib.error
        import urllib.request

        data = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers=headers or {},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                payload = resp.read()
                return resp.status, dict(resp.headers), (
                    json.loads(payload) if payload else None
                )
        except urllib.error.HTTPError as error:
            payload = error.read()
            return error.code, dict(error.headers), (
                json.loads(payload) if payload else None
            )

    def wait_terminal(self, job_id: str, timeout_s: float = 120.0) -> dict:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            status, _, record = self.request("GET", f"/jobs/{job_id}")
            if status == 200 and record["state"] in (
                "done", "failed", "cancelled"
            ):
                return record
            time.sleep(0.1)
        raise RuntimeError(f"job {job_id} never reached a terminal state")

    def sse_socket(self, job_id: str):
        """A raw socket with an open SSE stream (caller reads/closes)."""
        import socket
        from urllib.parse import urlparse

        parsed = urlparse(self.base_url)
        sock = socket.create_connection(
            (parsed.hostname, parsed.port), timeout=30.0
        )
        sock.sendall(
            f"GET /jobs/{job_id}/events HTTP/1.1\r\n"
            f"Host: {parsed.netloc}\r\n\r\n".encode("latin-1")
        )
        return sock

    def kill9(self) -> None:
        self.proc.kill()
        self.proc.wait()

    def terminate(self, timeout_s: float = 30.0) -> int:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=timeout_s)
            except Exception:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.terminate()


def _serve_spec(plan: Plan, pace_s: float = 0.0) -> dict:
    """The job spec every serve scenario submits (matches the Plan grid)."""
    return {
        "technique": "tuning",
        "benchmarks": list(plan.benchmarks),
        "seeds": [seed for seed in plan.seeds],
        "n_cycles": plan.config.n_cycles,
        "warmup_cycles": plan.config.warmup_cycles,
        "pace_s": pace_s,
    }


def _serve_golden(plan: Plan) -> str:
    """Canonical JSON of the summary a direct runner produces for the
    spec grid -- the byte-identical target for every served result."""
    from repro.serve import JobSpec, controller_factory

    spec = JobSpec.from_dict(_serve_spec(plan))
    summary = BenchmarkRunner(
        SweepConfig(
            n_cycles=spec.n_cycles, warmup_cycles=spec.warmup_cycles
        )
    ).sweep(
        controller_factory(spec),
        benchmarks=list(spec.benchmarks),
        seeds=list(spec.seeds),
    )
    return json.dumps(dataclasses.asdict(summary), sort_keys=True)


def _served_fingerprint(record: dict) -> str:
    return json.dumps(record["result"]["summary"], sort_keys=True)


def scenario_serve_kill9_resume(plan: Plan, tmp: pathlib.Path):
    """``kill -9`` the server mid-sweep; a restart must re-adopt the job,
    resume from its checkpoint, and converge byte-identically."""
    problems = []
    golden = _serve_golden(plan)
    data_dir = tmp / "serve"
    spec = _serve_spec(plan, pace_s=0.5)
    server = ServeHarness(data_dir, max_running=1).start()
    try:
        status, _, record = server.request(
            "POST", "/jobs", spec, {"Idempotency-Key": "kill9"}
        )
        if status != 201:
            return [f"submission failed: {status} {record}"]
        job_id = record["job_id"]
        # Let at least one cell complete and checkpoint, then murder the
        # process while the paced sweep is still mid-grid.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            _, _, record = server.request("GET", f"/jobs/{job_id}")
            if record["completed_cells"] >= 1:
                break
            time.sleep(0.05)
        else:
            return ["first cell never completed before the kill window"]
        if record["state"] in ("done", "failed", "cancelled"):
            return ["job finished before the kill window; widen pace_s"]
        server.kill9()
    except BaseException:
        server.terminate()
        raise

    checkpoint = data_dir / "work" / job_id / "checkpoint.json"
    if not checkpoint.exists():
        problems.append("no sweep checkpoint survived the kill")

    with ServeHarness(data_dir, max_running=1) as server:
        _, _, record = server.request("GET", f"/jobs/{job_id}")
        if record is None:
            return problems + ["job record lost across the crash"]
        if record["adoptions"] < 1:
            problems.append(
                f"job was not re-adopted (adoptions={record['adoptions']})"
            )
        record = server.wait_terminal(job_id)
        if record["state"] != "done":
            problems.append(
                f"resumed job ended {record['state']}: {record.get('error')}"
            )
        else:
            _, _, result = server.request(
                "GET", f"/jobs/{job_id}/result"
            )
            if _served_fingerprint(result) != golden:
                problems.append(
                    "resumed aggregates diverged from the direct run"
                )
        # An idempotent retry from before the crash still maps to the
        # original job after recovery.
        status, _, replay = server.request(
            "POST", "/jobs", spec, {"Idempotency-Key": "kill9"}
        )
        if status != 200 or replay["job_id"] != job_id:
            problems.append(
                f"idempotency map did not survive the crash:"
                f" {status} {replay and replay.get('job_id')}"
            )
    return problems


def scenario_serve_client_disconnect(plan: Plan, tmp: pathlib.Path):
    """Drop an SSE consumer mid-stream: the job must finish unaffected
    and the server must keep serving."""
    problems = []
    golden = _serve_golden(plan)
    with ServeHarness(tmp / "serve", max_running=1) as server:
        status, _, record = server.request(
            "POST", "/jobs", _serve_spec(plan, pace_s=0.3)
        )
        if status != 201:
            return [f"submission failed: {status} {record}"]
        job_id = record["job_id"]
        sock = server.sse_socket(job_id)
        try:
            sock.settimeout(30.0)
            received = b""
            while b"event: cell" not in received:
                chunk = sock.recv(4096)
                if not chunk:
                    return ["SSE stream closed before the first cell event"]
                received += chunk
        finally:
            # Abrupt close mid-stream -- no graceful shutdown, simulating
            # a crashed client.
            sock.close()
        record = server.wait_terminal(job_id)
        if record["state"] != "done":
            problems.append(
                f"job ended {record['state']} after client disconnect"
            )
        else:
            _, _, result = server.request("GET", f"/jobs/{job_id}/result")
            if _served_fingerprint(result) != golden:
                problems.append("aggregates diverged after disconnect")
        status, _, _ = server.request("GET", "/healthz")
        if status != 200:
            problems.append(f"server unhealthy after disconnect: {status}")
        # A late stream on the finished job must flush every buffered
        # cell event before its "end" frame.
        sock = server.sse_socket(job_id)
        try:
            sock.settimeout(30.0)
            received = b""
            while b"event: end" not in received:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                received += chunk
        finally:
            sock.close()
        cells = received.count(b"event: cell")
        expected = len(plan.benchmarks) * len(plan.seeds)
        if cells != expected:
            problems.append(
                f"late SSE replayed {cells} cell events, expected {expected}"
            )
    return problems


def scenario_serve_overflow_storm(plan: Plan, tmp: pathlib.Path):
    """Queue-full storm: new submissions shed with 429 + deterministic
    Retry-After while the running job completes unaffected."""
    problems = []
    golden = _serve_golden(plan)
    from repro.serve import AdmissionPolicy

    policy = AdmissionPolicy(max_queued=2, tenant_max_active=8,
                             tenant_max_cells=512)
    with ServeHarness(
        tmp / "serve", max_running=1, max_queued=policy.max_queued,
        tenant_max_active=policy.tenant_max_active,
        tenant_max_cells=policy.tenant_max_cells,
    ) as server:
        status, _, running = server.request(
            "POST", "/jobs", _serve_spec(plan, pace_s=0.5),
            {"Idempotency-Key": "storm-running"},
        )
        if status != 201:
            return [f"first submission failed: {status}"]
        queued_ids = []
        for n in range(policy.max_queued):
            status, _, record = server.request(
                "POST", "/jobs", _serve_spec(plan)
            )
            if status != 201:
                problems.append(f"queue slot {n} rejected early: {status}")
            else:
                queued_ids.append(record["job_id"])
        # The storm: every further submission must shed deterministically.
        expected_hint = policy.retry_after(
            queued=policy.max_queued, running=1
        )
        for n in range(5):
            status, headers, body = server.request(
                "POST", "/jobs", _serve_spec(plan)
            )
            if status != 429:
                problems.append(f"storm request {n} got {status}, not 429")
                continue
            hint = headers.get("Retry-After")
            if hint != str(expected_hint):
                problems.append(
                    f"storm request {n}: Retry-After {hint!r},"
                    f" expected {expected_hint!r}"
                )
        # An idempotent retry of the *accepted* job must bypass the full
        # queue and return the original id.
        status, _, replay = server.request(
            "POST", "/jobs", _serve_spec(plan, pace_s=0.5),
            {"Idempotency-Key": "storm-running"},
        )
        if status != 200 or replay["job_id"] != running["job_id"]:
            problems.append(
                f"idempotent retry under overload: {status},"
                f" id match={replay and replay.get('job_id') == running['job_id']}"
            )
        # Free the queue so the teardown drain is clean, then prove the
        # running job survived the storm byte-identically.
        for job_id in queued_ids:
            status, _, _ = server.request("POST", f"/jobs/{job_id}/cancel")
            if status != 200:
                problems.append(f"cancel of queued {job_id} got {status}")
        record = server.wait_terminal(running["job_id"])
        if record["state"] != "done":
            problems.append(f"running job ended {record['state']}")
        else:
            _, _, result = server.request(
                "GET", f"/jobs/{running['job_id']}/result"
            )
            if _served_fingerprint(result) != golden:
                problems.append("storm survivor's aggregates diverged")
    return problems


def scenario_serve_slow_loris(plan: Plan, tmp: pathlib.Path):
    """A drip-feeding request must be shed on the read deadline (408)
    while concurrent well-behaved requests keep being served."""
    import socket
    from urllib.parse import urlparse

    problems = []
    with ServeHarness(
        tmp / "serve", max_running=1, request_timeout_s=1.0
    ) as server:
        parsed = urlparse(server.base_url)
        sock = socket.create_connection(
            (parsed.hostname, parsed.port), timeout=30.0
        )
        try:
            sock.sendall(b"GET /healthz HTT")  # ...and then just sit there
            # The server must stay responsive to others while the loris
            # dangles.
            status, _, _ = server.request("GET", "/healthz", timeout=5.0)
            if status != 200:
                problems.append(f"healthz blocked by slow-loris: {status}")
            sock.settimeout(10.0)
            t0 = time.monotonic()
            response = b""
            while b"\r\n\r\n" not in response:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                response += chunk
            elapsed = time.monotonic() - t0
            if b"408" not in response.split(b"\r\n", 1)[0]:
                problems.append(
                    f"slow-loris got {response[:60]!r}, expected 408"
                )
            if elapsed > 8.0:
                problems.append(
                    f"loris held its connection {elapsed:.1f}s past the"
                    f" 1s deadline"
                )
        except socket.timeout:
            problems.append("server never answered the slow-loris socket")
        finally:
            sock.close()
        status, _, _ = server.request("GET", "/readyz")
        if status != 200:
            problems.append(f"server not ready after the loris: {status}")
    return problems


SCENARIOS = {
    "worker-kill": scenario_worker_kill,
    "checkpoint-corruption": scenario_checkpoint_corruption,
    "write-faults": scenario_write_faults,
    "sigterm": scenario_sigterm,
    "serve-kill9-resume": scenario_serve_kill9_resume,
    "serve-client-disconnect": scenario_serve_client_disconnect,
    "serve-overflow-storm": scenario_serve_overflow_storm,
    "serve-slow-loris": scenario_serve_slow_loris,
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
