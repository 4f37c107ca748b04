"""Tests for the command session (repro.sim.runner.Session).

One session per command: its runners share a memo of finished cells and
base runs, one checkpoint and one worker pool, so a command computes each
cell once.  Two sessions share nothing.
"""

import functools

import pytest

from repro import obs
from repro.baselines.damping import PipelineDampingController
from repro.cli import main
from repro.core import ResonanceTuningController
from repro.errors import SweepInterrupted
from repro.experiments import figure5, registry, table3
from repro.obs import metrics as obs_metrics
from repro.sim import (
    BenchmarkRunner,
    ResilienceConfig,
    Session,
    SweepConfig,
    load_checkpoint,
)

SMALL = SweepConfig(n_cycles=3000, warmup_cycles=200)
TINY = SweepConfig(n_cycles=800, warmup_cycles=100)
PAIR = ("swim", "gzip")


def tuning_factory(supply, processor):
    return ResonanceTuningController(supply, processor)


@pytest.fixture
def metrics():
    installed = obs_metrics.MetricsRegistry()
    obs_metrics.set_active_registry(installed)
    yield installed
    obs_metrics.set_active_registry(None)


def cells(metrics, status):
    """``runner_cells_total`` at one final status."""
    return metrics.counter("runner_cells_total").value(
        labels={"status": status}
    )


class TestCommandCheckpoint:
    def test_figure5_file_holds_every_cell_and_resumes_whole(
        self, tmp_path, metrics
    ):
        path = str(tmp_path / "ck.json")
        with Session(ResilienceConfig(checkpoint_path=path)) as session:
            first = figure5.run(
                benchmarks=PAIR, sweep_config=SMALL, session=session
            )
        # Six design points on two benchmarks, from three runners.
        assert len(load_checkpoint(path)["cells"]) == 12
        metrics.reset()
        resume = ResilienceConfig(checkpoint_path=path, resume=True)
        with Session(resume) as session:
            resumed = figure5.run(
                benchmarks=PAIR, sweep_config=SMALL, session=session
            )
        assert cells(metrics, "completed") == 0
        assert cells(metrics, "cached") == 12
        assert resumed == first


class TestMemo:
    def test_figure5_is_served_the_table3_rows_it_shares(self, metrics):
        with Session() as session:
            table3.run(
                initial_response_times=(75, 100), benchmarks=PAIR,
                sweep_config=SMALL, session=session,
            )
            metrics.reset()
            shared = figure5.run(
                benchmarks=PAIR, sweep_config=SMALL, session=session
            )
        # Points A and B are Table 3's rows: memo hits on both benchmarks.
        assert cells(metrics, "cached") == 4
        assert cells(metrics, "completed") == 8
        with Session() as session:
            fresh = figure5.run(
                benchmarks=PAIR, sweep_config=SMALL, session=session
            )
        assert shared == fresh

    def test_two_fresh_runners_each_compute_their_cells(self):
        for _ in range(2):
            summary = BenchmarkRunner(TINY).sweep(
                tuning_factory, benchmarks=PAIR
            )
            assert summary.timings["cells_cached"] == 0

    def test_a_view_shares_its_sessions_bases(self):
        session = Session()
        first = session.runner(TINY).run_base("gzip")
        assert session.runner(TINY).run_base("gzip") is first
        other = session.runner(SweepConfig(n_cycles=900, warmup_cycles=100))
        assert other.run_base("gzip") is not first


class TestPoolBases:
    BENCHMARKS = ("swim", "parser", "gzip", "fma3d")
    SEEDS = (11, 12, 13)

    def test_each_base_runs_once_across_a_pooled_session(self, tmp_path):
        # The second technique's cells are shipped the bases the first
        # sweep's workers computed and sent back.
        factories = (
            tuning_factory,
            functools.partial(PipelineDampingController, delta_amps=13.0),
        )
        obs.configure(metrics_out=str(tmp_path / "metrics.json"))
        try:
            with BenchmarkRunner(TINY) as runner:
                for factory in factories:
                    runner.sweep(
                        factory, benchmarks=self.BENCHMARKS, seeds=self.SEEDS,
                        resilience=ResilienceConfig(workers=2),
                    )
                held = len(runner.session.bases)
            base_runs = obs_metrics.active_registry().counter(
                "sim_runs_total"
            ).value(labels={"technique": "base"})
        finally:
            obs.reset()
        pairs = len(self.BENCHMARKS) * len(self.SEEDS)
        assert base_runs == pairs
        assert held == pairs


class TestExperimentCommand:
    def test_one_command_prints_every_named_artifact(self, capsys):
        assert main(["experiment", "figure1", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1(c)" in out
        assert "Table 1: system parameters" in out

    def test_all_selects_the_nine_paper_experiments(self):
        chosen = registry.select(["all"])
        assert chosen == sorted(registry.EXPERIMENTS)
        assert len(chosen) == 9
        assert registry.select(["table3", "figure5"]) == ["table3", "figure5"]

    def test_unknown_name_is_refused_before_any_experiment_runs(
        self, capsys
    ):
        with pytest.raises(KeyError, match="did you mean 'table3'"):
            main(["experiment", "figure1", "tabel3"])
        assert capsys.readouterr().out == ""

    def test_session_closes_when_a_sweep_drains(self, monkeypatch):
        sessions = []

        def drained(name, quick=False, session=None):
            sessions.append(session)
            raise SweepInterrupted("drained", signum=15)

        monkeypatch.setattr(registry, "run_experiment", drained)
        assert main(["experiment", "table3", "--quick"]) == 75
        (session,) = sessions
        assert session.closed
