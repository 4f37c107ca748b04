"""Tests for the sweep service (repro.serve).

Three layers:

* **Unit**: job-spec validation, admission-policy determinism, and the
  durable job store (persistence, recovery, corruption quarantine,
  lifecycle transitions) -- no sockets, no threads.
* **Integration**: one real service on an ephemeral port exercised over
  HTTP -- submit, stream SSE to completion, idempotent replay, result
  and error routes, cancellation, queue overflow, drain.
* **CLI**: the `serve` subcommand wiring and the Ctrl-C exit discipline.

The heavyweight failure modes (``kill -9`` + restart + resume, client
disconnect mid-stream, slow-loris) live in ``tools/chaos.py`` where they
run against a real subprocess; these tests keep the feedback loop fast.
"""

import asyncio
import dataclasses
import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import JobSpecError, JobStateError
from repro.faults.chaos import flip_bit
from repro.serve import (
    AdmissionPolicy,
    JobSpec,
    JobStore,
    ServeConfig,
    SweepService,
    controller_factory,
)
from repro.sim import BenchmarkRunner, SweepConfig


# ----------------------------------------------------------------------
# Job specs
# ----------------------------------------------------------------------

def spec_dict(**overrides):
    data = {"technique": "tuning", "benchmarks": ["swim"]}
    data.update(overrides)
    return data


class TestJobSpec:
    def test_minimal_spec_defaults(self):
        spec = JobSpec.from_dict(spec_dict())
        assert spec.technique == "tuning"
        assert spec.benchmarks == ("swim",)
        assert spec.seeds == (None,)
        assert spec.tenant == "default"
        assert spec.n_cells == 1

    def test_round_trip(self):
        spec = JobSpec.from_dict(spec_dict(
            benchmarks=["swim", "gzip"], seeds=[None, 7],
            n_cycles=900, warmup_cycles=90, tenant="team-a",
            params={"response_time": 80}, max_retries=1,
            deadline_s=30.0, pace_s=0.1,
        ))
        assert JobSpec.from_dict(spec.to_dict()) == spec
        assert spec.n_cells == 4

    @pytest.mark.parametrize("bad", [
        spec_dict(technique="nope"),
        spec_dict(benchmarks=[]),
        spec_dict(benchmarks=["not-a-benchmark"]),
        spec_dict(benchmarks="swim"),
        spec_dict(seeds=[]),
        spec_dict(seeds=["x"]),
        spec_dict(seeds=[True]),
        spec_dict(n_cycles=0),
        spec_dict(n_cycles="many"),
        spec_dict(warmup_cycles=-1),
        spec_dict(max_retries=-1),
        spec_dict(deadline_s=0),
        spec_dict(pace_s=-0.1),
        spec_dict(pace_s=99.0),
        spec_dict(tenant="no spaces allowed"),
        spec_dict(tenant=""),
        spec_dict(params={"unknown_knob": 3}),
        spec_dict(params="not-an-object"),
        spec_dict(surprise_field=1),
        spec_dict(technique=7),
        [],
        "spec",
        # POST /jobs parses with json.loads, which admits NaN and Infinity.
        spec_dict(pace_s=float("nan")),
        spec_dict(deadline_s=float("nan")),
        spec_dict(deadline_s=float("inf")),
        spec_dict(technique="damping", params={"delta_amps": float("nan")}),
        spec_dict(technique="damping", params={"delta_amps": float("-inf")}),
        spec_dict(technique="damping", params={"delta_amps": "abc"}),
        spec_dict(params={"response_time": 80.5}),
        spec_dict(technique="voltage-threshold", params={"delay": 1.5}),
        spec_dict(backend="dist"),
        spec_dict(backend=3),
    ])
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(JobSpecError):
            JobSpec.from_dict(bad)

    def test_unknown_params_name_the_technique(self):
        with pytest.raises(JobSpecError, match="delta_amps.*tuning"):
            JobSpec.from_dict(spec_dict(params={"delta_amps": 10.0}))

    def test_factory_matches_direct_controller(self):
        """The served factory is the CLI's factory: same technique name,
        and byte-identical sweep aggregates on the same grid."""
        spec = JobSpec.from_dict(spec_dict(n_cycles=900, warmup_cycles=90))
        factory = controller_factory(spec)
        config = SweepConfig(n_cycles=900, warmup_cycles=90)
        served = BenchmarkRunner(config).sweep(factory, benchmarks=["swim"])

        from repro.cli import _technique_factory
        import argparse
        cli_args = argparse.Namespace(technique="tuning", response_time=100)
        direct = BenchmarkRunner(config).sweep(
            _technique_factory(cli_args), benchmarks=["swim"]
        )
        assert (
            json.dumps(dataclasses.asdict(served), sort_keys=True)
            == json.dumps(dataclasses.asdict(direct), sort_keys=True)
        )

    def test_factory_param_validation(self):
        # A bad param fails at submission, before any factory is built ...
        with pytest.raises(JobSpecError):
            JobSpec.from_dict(spec_dict(
                technique="damping", params={"delta_amps": "wide"},
            ))
        # ... and an integral float reaches the builder as an int.
        spec = JobSpec.from_dict(spec_dict(params={"response_time": 80.0}))
        tuning = controller_factory(spec).keywords["tuning"]
        assert tuning.initial_response_time == 80
        assert isinstance(tuning.initial_response_time, int)

    @pytest.mark.parametrize("backend", ["auto", "sequential", "pool"])
    def test_legacy_local_backend_key_is_ignored(self, backend):
        spec = JobSpec.from_dict(spec_dict(backend=backend, workers=2))
        assert spec == JobSpec.from_dict(spec_dict(workers=2))
        assert "backend" not in spec.to_dict()


# ----------------------------------------------------------------------
# Admission policy
# ----------------------------------------------------------------------

class TestAdmissionPolicy:
    def test_retry_after_is_deterministic_and_monotone(self):
        policy = AdmissionPolicy(retry_after_base_s=1.0)
        hints = [policy.retry_after(q, 1) for q in range(5)]
        assert hints == [policy.retry_after(q, 1) for q in range(5)]
        assert hints == sorted(hints)
        assert all(isinstance(h, int) and h >= 1 for h in hints)

    def test_queue_bound(self):
        policy = AdmissionPolicy(max_queued=2)
        decision = policy.decide("t", 1, queued=2, running=0,
                                 tenant_active={}, tenant_cells={})
        assert not decision.admitted
        assert decision.reason == "queue_full"
        assert decision.retry_after_s == policy.retry_after(2, 0)

    def test_tenant_job_budget(self):
        policy = AdmissionPolicy(tenant_max_active=1)
        decision = policy.decide(
            "a", 1, queued=0, running=1,
            tenant_active={"a": 1}, tenant_cells={"a": 4},
        )
        assert decision.reason == "tenant_jobs_exhausted"
        # Another tenant is unaffected by tenant a's budget.
        assert policy.decide(
            "b", 1, queued=0, running=1,
            tenant_active={"a": 1}, tenant_cells={"a": 4},
        ).admitted

    def test_tenant_cell_budget(self):
        policy = AdmissionPolicy(tenant_max_cells=10)
        decision = policy.decide(
            "a", 6, queued=0, running=1,
            tenant_active={"a": 1}, tenant_cells={"a": 5},
        )
        assert decision.reason == "tenant_cells_exhausted"
        assert policy.decide(
            "a", 5, queued=0, running=1,
            tenant_active={"a": 1}, tenant_cells={"a": 5},
        ).admitted

    def test_bad_policy_rejected_at_construction(self):
        from repro.errors import ConfigurationError
        for kwargs in (
            {"max_queued": 0},
            {"tenant_max_active": 0},
            {"tenant_max_cells": 0},
            {"retry_after_base_s": 0},
        ):
            with pytest.raises(ConfigurationError):
                AdmissionPolicy(**kwargs)


# ----------------------------------------------------------------------
# Durable job store
# ----------------------------------------------------------------------

class TestJobStore:
    def test_create_persists_validated_record(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.create("t", spec_dict(), total_cells=1,
                              idempotency_key="k")
        payload = json.loads(
            open(store.record_path(record.job_id)).read()
        )
        assert payload["_meta"]["checksum"]
        assert payload["record"]["state"] == "queued"
        assert store.find_idempotent("t", "k").job_id == record.job_id
        assert store.find_idempotent("other-tenant", "k") is None

    def test_recover_adopts_in_flight_jobs(self, tmp_path):
        store = JobStore(str(tmp_path))
        running = store.create("t", spec_dict(), total_cells=1,
                               idempotency_key="k")
        store.transition(running.job_id, "running")
        done = store.create("t", spec_dict(), total_cells=1)
        store.transition(done.job_id, "running")
        store.transition(done.job_id, "done")

        fresh = JobStore(str(tmp_path))
        adopted = fresh.recover()
        assert [r.job_id for r in adopted] == [running.job_id]
        revived = fresh.get(running.job_id)
        assert revived.state == "queued"
        assert revived.adoptions == 1
        assert revived.started_at is None
        assert fresh.get(done.job_id).state == "done"
        # The idempotency map survives the restart.
        assert fresh.find_idempotent("t", "k").job_id == running.job_id
        # And the adoption is already durable, not just in memory.
        again = JobStore(str(tmp_path))
        again.recover()
        assert again.get(running.job_id).adoptions == 1

    def test_recover_quarantines_corrupt_records(self, tmp_path):
        store = JobStore(str(tmp_path))
        broken = store.create("t", spec_dict(), total_cells=1)
        intact = store.create("t", spec_dict(), total_cells=1)
        path = store.record_path(broken.job_id)
        flip_bit(path, offset=os.path.getsize(path) // 2)

        fresh = JobStore(str(tmp_path))
        fresh.recover()
        assert fresh.get(broken.job_id) is None
        assert fresh.get(intact.job_id) is not None
        assert len(fresh.corrupt_files) == 1
        assert ".corrupt-" in fresh.corrupt_files[0]
        assert os.path.exists(fresh.corrupt_files[0])
        assert not os.path.exists(path)

    def test_transition_rules(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = store.create("t", spec_dict(), total_cells=1)
        store.transition(record.job_id, "running")
        store.transition(record.job_id, "done")
        with pytest.raises(JobStateError):
            store.transition(record.job_id, "running")
        with pytest.raises(JobStateError):
            store.transition("job-missing", "running")

    def test_checkpoint_path_is_per_job(self, tmp_path):
        store = JobStore(str(tmp_path))
        a = store.create("t", spec_dict(), total_cells=1)
        b = store.create("t", spec_dict(), total_cells=1)
        assert store.checkpoint_path(a.job_id) != store.checkpoint_path(b.job_id)
        assert store.checkpoint_path(a.job_id).startswith(str(tmp_path))


# ----------------------------------------------------------------------
# Service integration over real HTTP
# ----------------------------------------------------------------------

def _decode(response):
    """JSON body, or raw text for non-JSON surfaces like /metrics."""
    raw = response.read()
    if not raw:
        return None
    if response.headers.get_content_type() == "application/json":
        return json.loads(raw)
    return raw.decode()


class ServiceFixture:
    """One in-process service on an ephemeral port, driven over HTTP."""

    def __init__(self, tmp_path, **config_kwargs):
        config_kwargs.setdefault("max_running", 1)
        config_kwargs.setdefault(
            "admission",
            AdmissionPolicy(max_queued=2, tenant_max_active=8,
                            tenant_max_cells=512),
        )
        self.service = SweepService(ServeConfig(
            data_dir=str(tmp_path / "serve"), port=0, **config_kwargs
        ))
        self.exit_code = None
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.exit_code = asyncio.run(self.service.run())

    def __enter__(self):
        self.thread.start()
        deadline = time.monotonic() + 10
        while self.service.bound_port is None:
            if time.monotonic() > deadline:
                raise RuntimeError("service never bound its port")
            time.sleep(0.02)
        self.base = f"http://127.0.0.1:{self.service.bound_port}"
        return self

    def __exit__(self, *exc):
        loop = self.service._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self.service.initiate_drain)
        self.thread.join(timeout=30)

    def request(self, method, path, body=None, headers=None, timeout=10.0):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            self.base + path, data=data, method=method, headers=headers or {}
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                return resp.status, dict(resp.headers), _decode(resp)
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), _decode(error)

    def wait_state(self, job_id, states, timeout_s=60.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            _, _, record = self.request("GET", f"/jobs/{job_id}")
            if record["state"] in states:
                return record
            time.sleep(0.05)
        raise RuntimeError(f"job {job_id} never reached {states}")


TINY = {"n_cycles": 800, "warmup_cycles": 80}


class TestServiceIntegration:
    def test_submit_stream_result_lifecycle(self, tmp_path):
        with ServiceFixture(tmp_path) as fx:
            status, _, _ = fx.request("GET", "/readyz")
            assert status == 200

            status, _, record = fx.request(
                "POST", "/jobs", spec_dict(**TINY),
                {"Idempotency-Key": "a", "Content-Type": "application/json"},
            )
            assert status == 201
            job_id = record["job_id"]
            assert record["total_cells"] == 1

            # Result before completion is a 409, not an empty 200 (the
            # tiny job may already be done; both are well-formed).
            status, _, _ = fx.request("GET", f"/jobs/{job_id}/result")
            assert status in (200, 409)

            record = fx.wait_state(job_id, ("done",))
            assert record["completed_cells"] == 1
            assert record["failed_cells"] == 0

            status, _, result = fx.request("GET", f"/jobs/{job_id}/result")
            assert status == 200
            summary = result["result"]["summary"]
            assert summary["technique"] == "resonance-tuning"
            assert summary["per_benchmark"][0]["benchmark"] == "swim"

            # Idempotent replay returns the original job, 200 not 201.
            status, _, replay = fx.request(
                "POST", "/jobs", spec_dict(**TINY), {"Idempotency-Key": "a"}
            )
            assert (status, replay["job_id"]) == (200, job_id)

            # The listing and metrics surfaces agree.
            _, _, listing = fx.request("GET", "/jobs")
            assert job_id in [job["job_id"] for job in listing["jobs"]]
            status, headers, _ = fx.request("GET", "/metrics")
            assert status == 200
            assert headers["Content-Type"].startswith("text/plain")

    def test_validation_and_unknown_routes(self, tmp_path):
        with ServiceFixture(tmp_path) as fx:
            status, _, body = fx.request(
                "POST", "/jobs", spec_dict(technique="nope")
            )
            assert status == 400
            assert "unknown technique" in body["error"]
            assert fx.request("GET", "/jobs/job-missing")[0] == 404
            assert fx.request("GET", "/nope")[0] == 404
            assert fx.request("DELETE", "/jobs")[0] == 405
            status, _, body = fx.request("POST", "/jobs", body=None)
            assert status == 400

    def test_non_finite_submission_is_rejected_without_a_record(
        self, tmp_path
    ):
        with ServiceFixture(tmp_path) as fx:
            # json.dumps writes float("nan") as the bare token NaN.
            status, _, body = fx.request(
                "POST", "/jobs", spec_dict(pace_s=float("nan"), **TINY)
            )
            assert status == 400
            assert "pace_s" in body["error"]
            assert fx.service.store.list_records() == []
            assert os.listdir(fx.service.store.jobs_dir) == []

    def test_records_persisted_with_a_backend_still_run(self, tmp_path):
        # Job records written while specs carried a "backend" field: a
        # local choice is ignored, anything else fails the job cleanly.
        store = JobStore(str(tmp_path / "serve"))
        legacy = store.create(
            "default", spec_dict(backend="auto", **TINY), total_cells=1
        )
        dist = store.create(
            "default", spec_dict(backend="dist", **TINY), total_cells=1
        )
        with ServiceFixture(tmp_path) as fx:
            fx.wait_state(legacy.job_id, ("done",), timeout_s=60.0)
            failed = fx.wait_state(dist.job_id, ("failed",), timeout_s=10.0)
        assert failed["error"]["type"] == "JobSpecError"

    def test_overflow_sheds_with_deterministic_retry_after(self, tmp_path):
        policy = AdmissionPolicy(max_queued=1, tenant_max_active=8,
                                 tenant_max_cells=512)
        with ServiceFixture(tmp_path, admission=policy) as fx:
            running = fx.request(
                "POST", "/jobs", spec_dict(pace_s=0.4, **TINY)
            )[2]
            queued = fx.request("POST", "/jobs", spec_dict(**TINY))[2]
            status, headers, _ = fx.request("POST", "/jobs", spec_dict(**TINY))
            assert status == 429
            assert headers["Retry-After"] == str(policy.retry_after(1, 1))
            # The queued job is cancellable; the running one completes.
            status, _, record = fx.request(
                "POST", f"/jobs/{queued['job_id']}/cancel"
            )
            assert (status, record["state"]) == (200, "cancelled")
            record = fx.wait_state(running["job_id"], ("done",))
            assert record["state"] == "done"

    def test_cancel_running_job_drains_at_cell_barrier(self, tmp_path):
        with ServiceFixture(tmp_path) as fx:
            record = fx.request("POST", "/jobs", spec_dict(
                benchmarks=["swim", "gzip", "parser"], pace_s=0.5, **TINY
            ))[2]
            job_id = record["job_id"]
            fx.wait_state(job_id, ("running",))
            status, _, record = fx.request("POST", f"/jobs/{job_id}/cancel")
            assert status == 200
            assert record["state"] in ("draining", "cancelled")
            record = fx.wait_state(job_id, ("cancelled",))
            assert record["cancel_requested"] is True
            # Cancelling a terminal job is a 409, not a double transition.
            assert fx.request("POST", f"/jobs/{job_id}/cancel")[0] == 409
            # The checkpoint keeps whatever completed before the barrier.
            status, _, _ = fx.request("GET", f"/jobs/{job_id}/result")
            assert status == 409

    def test_sse_stream_reaches_end(self, tmp_path):
        import socket

        with ServiceFixture(tmp_path) as fx:
            job_id = fx.request("POST", "/jobs", spec_dict(**TINY))[2]["job_id"]
            sock = socket.create_connection(
                ("127.0.0.1", fx.service.bound_port), timeout=30
            )
            try:
                sock.sendall(
                    f"GET /jobs/{job_id}/events HTTP/1.1\r\n"
                    f"Host: x\r\n\r\n".encode()
                )
                sock.settimeout(60)
                stream = b""
                while b"event: end" not in stream:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    stream += chunk
            finally:
                sock.close()
            assert b"event: state" in stream
            assert stream.count(b"event: cell") == 1
            assert b"event: end" in stream

    def test_drain_exits_zero_when_idle(self, tmp_path):
        fx = ServiceFixture(tmp_path)
        with fx:
            record = fx.request("POST", "/jobs", spec_dict(**TINY))[2]
            fx.wait_state(record["job_id"], ("done",))
        assert fx.exit_code == 0

    def test_drain_with_queued_work_exits_75_and_recovers(self, tmp_path):
        fx = ServiceFixture(tmp_path, drain_deadline_s=5.0)
        with fx:
            running = fx.request(
                "POST", "/jobs",
                spec_dict(benchmarks=["swim", "gzip"], pace_s=0.5, **TINY),
            )[2]
            queued = fx.request("POST", "/jobs", spec_dict(**TINY))[2]
            fx.wait_state(running["job_id"], ("running",))
            # __exit__ initiates the drain with work outstanding.
        assert fx.exit_code == 75
        # A fresh store adopts the leftovers back to queued.
        store = JobStore(str(tmp_path / "serve"))
        store.recover()
        states = {r.job_id: r.state for r in store.list_records()}
        assert states[queued["job_id"]] == "queued"
        # The paced job was stopped at a cell barrier and re-queued; if it
        # outran the drain it is done -- either way it is restartable state.
        assert states[running["job_id"]] in ("queued", "done")
        # Submitting while draining would have been refused; after the
        # restartable state is proven, nothing else to assert here.


# ----------------------------------------------------------------------
# Debug endpoints and end-to-end trace correlation
# ----------------------------------------------------------------------

@pytest.fixture()
def clean_obs():
    """Reset process-wide observability around a test that turns it on."""
    from repro import obs

    obs.finalize()
    yield obs
    obs.finalize()


class TestDebugEndpoints:
    def test_debug_vars_surface(self, tmp_path):
        with ServiceFixture(tmp_path) as fx:
            status, headers, body = fx.request("GET", "/debug/vars")
            assert status == 200
            assert headers["Content-Type"].startswith("application/json")
            assert body["pid"] == os.getpid()
            assert body["uptime_s"] >= 0
            assert body["draining"] is False
            assert body["queue_depth"] == 0
            assert body["running_jobs"] == []
            assert body["tracing"] is False
            assert body["profiling"] is False
            assert "counters" in body["metrics"]
            # mutating methods stay rejected on the debug surface
            assert fx.request("POST", "/debug/vars")[0] == 405

    def test_debug_profile_409_when_off(self, tmp_path):
        with ServiceFixture(tmp_path) as fx:
            status, _, body = fx.request("GET", "/debug/profile")
            assert status == 409
            assert "profiler is off" in body["error"]

    def test_debug_profile_live_snapshot(self, tmp_path, clean_obs):
        clean_obs.configure(profile_out=str(tmp_path / "profile.json"))
        with ServiceFixture(tmp_path) as fx:
            # let the sampler observe the service threads at least once
            time.sleep(0.05)
            status, _, body = fx.request("GET", "/debug/profile")
            assert status == 200
            assert body["$schema"] == (
                "https://www.speedscope.app/file-format-schema.json"
            )
            assert body["profiles"]


class TestEndToEndTraceCorrelation:
    """The acceptance demo: one job through serve backed by the process
    pool must land every tier's span in one causally-linked trace."""

    def test_serve_pool_job_links_one_trace(self, tmp_path, clean_obs):
        from repro.obs.context import TraceContext
        from repro.obs.trace import load_trace_events

        trace_path = tmp_path / "trace.json"
        clean_obs.configure(trace_out=str(trace_path))
        client_ctx = TraceContext.root("client|e2e")
        with ServiceFixture(tmp_path) as fx:
            status, _, record = fx.request(
                "POST", "/jobs",
                # Two pending cells: one would run in-process.
                spec_dict(benchmarks=["swim", "gzip"], workers=2, **TINY),
                {"traceparent": client_ctx.to_traceparent()},
            )
            assert status == 201
            job_id = record["job_id"]
            assert record["trace"]["trace_id"] == client_ctx.trace_id
            fx.wait_state(job_id, ("done",), timeout_s=120.0)
        clean_obs.finalize()

        events = load_trace_events(str(trace_path))
        spans = {}
        for event in events:
            if event.get("ph") != "X":
                continue
            args = event.get("args", {})
            if args.get("trace_id") == client_ctx.trace_id:
                spans[args["span_id"]] = (
                    event["name"], args.get("parent_id"), event["pid"]
                )

        def find(prefix):
            matches = [
                (sid, *info) for sid, info in spans.items()
                if info[0].startswith(prefix)
            ]
            assert matches, (
                f"no {prefix!r} span in trace"
                f" {sorted(i[0] for i in spans.values())}"
            )
            return matches

        # every tier of the lifecycle is present in the one trace
        (http_id, _, http_parent, _), = find("http POST /jobs")
        (job_sid, _, job_parent, _), = find(f"job {job_id}")
        (sweep_id, _, sweep_parent, _), = find("sweep")
        cells = find("cell ")
        runs = find("run ")

        # ... with parent links across every boundary
        assert http_parent == client_ctx.span_id
        assert job_parent == http_id
        assert sweep_parent == job_sid
        assert {entry[2] for entry in cells} == {sweep_id}
        cell_ids = {entry[0] for entry in cells}
        assert all(entry[2] in cell_ids for entry in runs)

        # ... and across at least two processes (service + pool worker)
        pids = {info[2] for info in spans.values()}
        assert len(pids) >= 2
        worker_pids = {entry[3] for entry in cells}
        assert os.getpid() not in worker_pids

    def test_job_trace_ids_deterministic_for_fixed_traceparent(
        self, tmp_path, clean_obs
    ):
        # Same traceparent, different job ids: the request/job spans
        # derive from the client context and the job id, so the trace id
        # is pinned by the client while span ids stay distinct per job.
        from repro.obs.context import TraceContext

        clean_obs.configure(trace_out=str(tmp_path / "trace.json"))
        client_ctx = TraceContext.root("client|fixed")
        with ServiceFixture(tmp_path) as fx:
            records = [
                fx.request(
                    "POST", "/jobs", spec_dict(**TINY),
                    {"traceparent": client_ctx.to_traceparent()},
                )[2]
                for _ in range(2)
            ]
            for record in records:
                fx.wait_state(record["job_id"], ("done",))
        clean_obs.finalize()
        first, second = (r["trace"] for r in records)
        assert first["trace_id"] == second["trace_id"] == client_ctx.trace_id
        assert first["span_id"] != second["span_id"]
        assert first["parent_id"] == second["parent_id"]


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------

class TestCliServe:
    def test_serve_parser_defaults(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["serve", "--data-dir", "/tmp/x", "--port", "0"]
        )
        assert args.func.__name__ == "_cmd_serve"
        assert args.max_running == 2
        assert args.max_queued == 16
        assert args.request_timeout_s == 5.0

    def test_keyboard_interrupt_exits_130(self, monkeypatch):
        from repro import cli

        def boom(args):
            raise KeyboardInterrupt

        # build_parser() binds cli._cmd_analyze at call time, and main()
        # builds its own parser, so patching the module attribute is enough.
        monkeypatch.setattr(cli, "_cmd_analyze", boom)
        assert cli.main(["analyze"]) == 130

    def test_sweep_interrupted_still_exits_75(self, monkeypatch):
        from repro import cli
        from repro.errors import SweepInterrupted

        def drained(args):
            raise SweepInterrupted("drained", signum=15)

        monkeypatch.setattr(cli, "_cmd_analyze", drained)
        assert cli.main(["analyze"]) == 75
