"""End-to-end chaos tests: disturbed sweeps converge to the golden run.

The headline invariant of the crash-safety layer, exercised with real
process-level faults from :mod:`repro.faults.chaos`: a sweep whose
workers are SIGKILLed mid-cell and whose checkpoint is truncated or
bit-flipped between attempts still terminates, and repeated ``--resume``
runs converge to aggregates byte-identical to an undisturbed sequential
sweep -- no cell lost, duplicated, or silently altered.  Breadth (more
scenarios, seeded corruption sites, SIGTERM barriers) lives in
``tools/chaos.py``; CI runs it with ``--quick``.
"""

import dataclasses
import json

import pytest

from repro.core import ResonanceTuningController
from repro.faults.chaos import (
    KillWorkerOnce,
    flip_bit,
    inject_fsync_faults,
    truncate_file,
)
from repro.sim import (
    BenchmarkRunner,
    ResilienceConfig,
    SweepConfig,
    load_checkpoint,
)
from repro.sim.checkpoint import cell_key


def tuning_factory(supply, processor):
    return ResonanceTuningController(supply, processor)


def fingerprint(summary):
    return json.dumps(dataclasses.asdict(summary), sort_keys=True)


SMALL = SweepConfig(n_cycles=2000, warmup_cycles=200)
BENCHMARKS = ("swim", "gzip")
GRID_KEYS = {
    cell_key(0, name, "resonance-tuning", None) for name in BENCHMARKS
}


@pytest.fixture(scope="module")
def golden():
    """Fingerprint of the undisturbed sequential sweep."""
    summary = BenchmarkRunner(SMALL).sweep(tuning_factory, benchmarks=BENCHMARKS)
    return fingerprint(summary)


def run_with_checkpoint(path, **kwargs):
    return BenchmarkRunner(SMALL).sweep(
        tuning_factory,
        benchmarks=BENCHMARKS,
        resilience=ResilienceConfig(checkpoint_path=str(path), **kwargs),
    )


class TestKillAndCorruptionConvergence:
    def test_kill_then_truncate_then_repeated_resume(self, tmp_path, golden):
        """SIGKILL a worker mid-cell, abort the sweep, mutilate the
        checkpoint, and resume (twice): aggregates must match the
        undisturbed run and the checkpoint must hold exactly the grid."""
        ck = tmp_path / "ck.json"

        class Abort(BaseException):
            """Out of Exception's reach: simulates a hard crash."""

        def crash_after_first(name, metrics):
            raise Abort()

        transform = KillWorkerOnce(
            str(tmp_path / "kill.marker"), "swim", after_cycles=300
        )
        with BenchmarkRunner(SMALL, supply_transform=transform) as runner:
            with pytest.raises(Abort):
                runner.sweep(
                    tuning_factory,
                    benchmarks=BENCHMARKS,
                    progress=crash_after_first,
                    resilience=ResilienceConfig(
                        checkpoint_path=str(ck), workers=2
                    ),
                )
        # at least the cell that triggered the crash callback is durable
        assert len(load_checkpoint(str(ck))["cells"]) >= 1

        truncate_file(str(ck), 0.5)
        with pytest.warns(RuntimeWarning, match="salvag"):
            resumed = run_with_checkpoint(ck, resume=True)
        assert fingerprint(resumed) == golden
        assert len(resumed.per_benchmark) == len(BENCHMARKS)
        assert not resumed.failures
        assert set(load_checkpoint(str(ck))["cells"]) == GRID_KEYS

        again = run_with_checkpoint(ck, resume=True)
        assert fingerprint(again) == golden
        assert again.timings["cells_cached"] == float(len(BENCHMARKS))

    def test_bit_flip_is_quarantined_and_resume_converges(
        self, tmp_path, golden
    ):
        ck = tmp_path / "ck.json"
        run_with_checkpoint(ck)
        flip_bit(str(ck), offset=ck.stat().st_size // 2)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            resumed = run_with_checkpoint(ck, resume=True)
        assert fingerprint(resumed) == golden
        assert list(tmp_path.glob("ck.json.corrupt-*"))
        # the re-persisted checkpoint at the original path is valid again
        assert GRID_KEYS <= set(load_checkpoint(str(ck))["cells"])

    def test_salvaged_checkpoint_is_repersisted_even_with_no_rerun(
        self, tmp_path
    ):
        """Quarantining must not eat the checkpoint: after a salvage the
        original path holds a valid file even if every record survived
        (and hence no cell re-ran to trigger a save)."""
        ck = tmp_path / "ck.json"
        run_with_checkpoint(ck)
        size = ck.stat().st_size
        truncate_file(str(ck), (size - 2) / size)  # clip the closing braces
        with pytest.warns(RuntimeWarning):
            run_with_checkpoint(ck, resume=True)
        loaded = load_checkpoint(str(ck))  # would raise if the path is gone
        assert set(loaded["cells"]) == GRID_KEYS


class TestWriteFaults:
    def test_sweep_survives_every_fsync_failing(self, tmp_path, golden):
        ck = tmp_path / "ck.json"
        with pytest.warns(RuntimeWarning, match="checkpoint write"):
            with inject_fsync_faults(every=1) as hits:
                summary = run_with_checkpoint(ck)
        assert hits["faults"] > 0
        assert fingerprint(summary) == golden
        # every atomic write aborted before the replace: no checkpoint,
        # no leftover temp files
        assert not list(tmp_path.iterdir())

    def test_intermittent_fsync_faults_leave_resumable_checkpoint(
        self, tmp_path, golden
    ):
        ck = tmp_path / "ck.json"
        with pytest.warns(RuntimeWarning, match="checkpoint write"):
            with inject_fsync_faults(every=2) as hits:
                summary = run_with_checkpoint(ck)
        assert hits["faults"] > 0
        assert fingerprint(summary) == golden
        resumed = run_with_checkpoint(ck, resume=True)
        assert fingerprint(resumed) == golden
        assert set(load_checkpoint(str(ck))["cells"]) == GRID_KEYS
