"""Tests for the command-line interface and the export helpers."""

import json

import pytest

from repro.cli import build_parser, main
from repro.sim.export import (
    metrics_to_csv,
    results_to_csv,
    summary_to_dict,
    to_json,
    write_csv,
)
from repro.sim.metrics import RelativeMetrics, SimulationResult
from repro.sim.runner import summarize


def make_result(**kwargs):
    defaults = dict(
        benchmark="swim", technique="base", cycles=1000, instructions=2000,
        energy_joules=1e-6, phantom_energy_joules=0.0,
        violation_cycles=3, violation_events=1,
    )
    defaults.update(kwargs)
    return SimulationResult(**defaults)


def make_metrics(benchmark="swim", slowdown=1.1):
    return RelativeMetrics(
        benchmark=benchmark, technique="tuning", slowdown=slowdown,
        energy=1.05, energy_delay=slowdown * 1.05,
        violation_fraction=0.0, base_violation_fraction=1e-3,
        first_level_fraction=0.1, second_level_fraction=0.01,
    )


class TestExport:
    def test_results_csv_round_trip(self):
        text = results_to_csv([make_result(), make_result(benchmark="gzip")])
        lines = text.strip().splitlines()
        assert lines[0].startswith("benchmark,technique")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "swim"

    def test_metrics_csv(self):
        text = metrics_to_csv([make_metrics()])
        lines = text.strip().splitlines()
        assert "slowdown" in lines[0]
        assert "1.1" in lines[1]

    def test_summary_dict_and_json(self):
        summary = summarize([make_metrics(), make_metrics("gzip", 1.2)])
        data = summary_to_dict(summary)
        assert data["avg_slowdown"] == pytest.approx(1.15)
        assert len(data["per_benchmark"]) == 2
        parsed = json.loads(to_json(summary))
        assert parsed["worst_benchmark"] == "gzip"

    def test_metrics_json(self):
        parsed = json.loads(to_json([make_metrics()]))
        assert parsed[0]["benchmark"] == "swim"

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(str(path), [make_result()])
        assert path.read_text().startswith("benchmark")


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_table1(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "100.00 MHz" in out or "99.96 MHz" in out
        assert "84-119 cycles" in out

    def test_analyze_overdamped(self, capsys):
        assert main([
            "analyze", "--resistance-uohm", "1000000",
            "--capacitance-nf", "100000",
        ]) == 0
        assert "not underdamped" in capsys.readouterr().out

    def test_calibrate(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "threshold" in out
        assert "half-waves" in out

    def test_classify_subset(self, capsys):
        assert main(["classify", "gzip", "--cycles", "4000"]) == 0
        assert "gzip" in capsys.readouterr().out

    def test_compare_tuning(self, capsys):
        assert main(["compare", "tuning", "gzip", "--cycles", "4000"]) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out
        assert "gzip" in out

    def test_compare_damping(self, capsys):
        assert main([
            "compare", "damping", "gzip",
            "--cycles", "4000", "--delta-amps", "13",
        ]) == 0
        assert "gzip" in capsys.readouterr().out

    def test_experiment_quick(self, capsys):
        assert main(["experiment", "figure1", "--quick"]) == 0
        assert "Figure 1(c)" in capsys.readouterr().out

    def test_experiment_unknown(self):
        with pytest.raises(KeyError):
            main(["experiment", "table42"])

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


class TestCLITechniques:
    def test_compare_voltage_threshold(self, capsys):
        assert main([
            "compare", "voltage-threshold", "gzip",
            "--cycles", "3000", "--threshold-mv", "30",
        ]) == 0
        assert "gzip" in capsys.readouterr().out

    def test_compare_convolution(self, capsys):
        assert main([
            "compare", "convolution", "gzip",
            "--cycles", "3000", "--estimate-gain", "0.9",
        ]) == 0
        assert "gzip" in capsys.readouterr().out

    def test_compare_rejects_unknown_technique(self):
        with pytest.raises(SystemExit):
            main(["compare", "magic", "gzip"])

    def test_experiment_ablation_id(self, capsys):
        assert main(["experiment", "ablation-sensing", "--quick"]) == 0
        assert "Ablation" in capsys.readouterr().out
