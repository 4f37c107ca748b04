"""Tests for the experiment modules at tiny scales.

The paper's claims about each artifact are checked in tests/test_claims.py
(at ``--quick``) and by ``python -m repro experiment all --out DIR``
(at full scale).
"""

import pytest

from repro.experiments import (
    figure1,
    figure3,
    figure4,
    figure5,
    table1,
    table2,
    table3,
    table4,
    table5,
)
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.report import ascii_series, format_number, render_table
from repro.sim import SweepConfig

TINY = SweepConfig(n_cycles=6_000, warmup_cycles=500)
FEW = ("swim", "gzip")


class TestReport:
    def test_render_table_alignment(self):
        text = render_table("T", ["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len(lines) == 6

    def test_format_number_small_values(self):
        assert "e-" in format_number(1.5e-6)
        assert format_number(True) == "yes"
        assert format_number("x") == "x"

    def test_ascii_series_shape(self):
        plot = ascii_series([1.0, 2.0, 3.0] * 30, height=4, width=20, label="x")
        lines = plot.splitlines()
        assert lines[0].startswith("x")
        assert len(lines) == 6

    def test_ascii_series_empty(self):
        assert "(empty)" in ascii_series([], label="y")


class TestFigure1:
    def test_band_annotations(self):
        result = figure1.run()
        assert result.band_low_hz < result.resonant_frequency_hz < result.band_high_hz
        assert "Figure 1(c)" in result.render()


class TestTable1:
    def test_derived_rows(self):
        result = table1.run()
        assert result.calibration.band_min_period_cycles == 84
        assert "Table 1" in result.render()


class TestFigure3:
    def test_violation_at_tolerance(self):
        result = figure3.run()
        assert result.count_at_violation == 4
        assert "Figure 3" in result.render()

    def test_no_violation_below_threshold(self):
        result = figure3.run(amplitude_pp=18.0)
        assert result.first_violation_cycle is None
        assert result.count_at_violation is None


class TestFigure4:
    def test_finds_violation_window(self):
        result = figure4.run(max_cycles=60_000)
        assert result.violation_cycle is not None
        assert len(result.currents) == len(result.voltages)
        assert "Figure 4" in result.render()


class TestTable2:
    def test_rows_and_render(self):
        result = table2.run(benchmarks=FEW, sweep_config=TINY)
        assert len(result.rows) == 2
        swim = next(r for r in result.rows if r.benchmark == "swim")
        assert swim.paper_violating
        assert "Table 2" in result.render()


class TestTable3:
    def test_sweep_and_lookup(self):
        result = table3.run(
            initial_response_times=(75,), benchmarks=FEW, sweep_config=TINY
        )
        summary = result.summary_for(75)
        assert summary.avg_slowdown > 0.9
        with pytest.raises(KeyError):
            result.summary_for(999)
        assert "Table 3" in result.render()


class TestTable4:
    def test_sweep_and_lookup(self):
        result = table4.run(
            configs=(table4.VTConfig(30, 0, 0),),
            benchmarks=FEW,
            sweep_config=TINY,
        )
        assert result.summary_for("30/0/0").avg_slowdown >= 0.9
        with pytest.raises(KeyError):
            result.summary_for("1/2/3")
        assert "Table 4" in result.render()

    def test_config_labels(self):
        config = table4.VTConfig(20, 15, 3)
        assert config.label == "20/15/3"
        assert config.actual_mv == pytest.approx(12.5)


class TestTable5:
    def test_sweep_and_lookup(self):
        result = table5.run(
            relative_deltas=(0.5,), benchmarks=FEW, sweep_config=TINY
        )
        assert result.summary_for(0.5).avg_slowdown >= 0.9
        with pytest.raises(KeyError):
            result.summary_for(0.33)
        assert "Table 5" in result.render()


class TestFigure5:
    def test_composes_design_points(self):
        result = figure5.run(benchmarks=FEW, sweep_config=TINY)
        labels = [label for label, _, _, _ in result.energy_delays]
        assert labels == ["A", "B", "C", "D", "E", "F"]
        assert "Figure 5" in result.render()


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "figure1", "table1", "figure3", "figure4",
            "table2", "table3", "table4", "table5", "figure5",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("table9")

    def test_quick_figure1_runs(self):
        result = run_experiment("figure1", quick=True)
        assert hasattr(result, "render")


class TestSvgCharts:
    def test_line_chart_renders_valid_svg(self):
        from repro.experiments.svg import LineChart

        chart = LineChart(title="t", x_label="x", y_label="y")
        chart.add_series("a", [0, 1, 2], [1.0, 3.0, 2.0])
        chart.add_guide("m", 2.5)
        chart.add_vertical_guide("v", 1.0)
        svg = chart.render()
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert "polyline" in svg
        assert "stroke-dasharray" in svg

    def test_line_chart_rejects_bad_series(self):
        from repro.errors import ConfigurationError
        from repro.experiments.svg import LineChart

        chart = LineChart(title="t")
        with pytest.raises(ConfigurationError):
            chart.add_series("a", [1, 2], [1])
        with pytest.raises(ConfigurationError):
            chart.add_series("a", [], [])
        with pytest.raises(ConfigurationError):
            chart.render()

    def test_bar_chart_renders(self):
        from repro.experiments.svg import BarChart

        chart = BarChart(title="b", baseline=1.0)
        chart.add_bar("one", 1.1).add_bar("two", 1.4)
        svg = chart.render()
        assert svg.count("<rect") >= 3  # background + two bars

    def test_bar_chart_rejects_empty(self):
        from repro.errors import ConfigurationError
        from repro.experiments.svg import BarChart

        with pytest.raises(ConfigurationError):
            BarChart(title="b").render()

    def test_figure_results_emit_charts(self):
        charts = figure1.run().to_svg_charts()
        assert set(charts) == {"impedance"}
        charts = figure3.run().to_svg_charts()
        assert set(charts) == {"voltage", "current", "count"}
        for svg in charts.values():
            assert svg.startswith("<svg")

    def test_chart_escapes_labels(self):
        from repro.experiments.svg import LineChart

        chart = LineChart(title="<script>")
        chart.add_series("a&b", [0, 1], [0, 1])
        svg = chart.render()
        assert "<script>" not in svg
        assert "&lt;script&gt;" in svg
        assert "a&amp;b" in svg


class TestAblations:
    def test_two_tier_variants(self):
        from repro.experiments import ablations

        result = ablations.run_two_tier(n_cycles=5_000, benchmarks=("swim",))
        labels = [label for label, _ in result.summaries]
        assert labels == ["both", "first-only", "second-only"]
        assert "Ablation" in result.render()
        assert result.summary_for("both").avg_slowdown >= 0.9
        with pytest.raises(KeyError):
            result.summary_for("nonsense")

    def test_band_coverage_variants(self):
        from repro.experiments import ablations

        result = ablations.run_band_coverage(
            n_cycles=5_000, benchmarks=("gzip",)
        )
        assert {label for label, _ in result.summaries} == {
            "band-wide", "single-frequency",
        }

    def test_sensing_variants(self):
        from repro.experiments import ablations

        result = ablations.run_sensing(
            n_cycles=4_000, benchmarks=("gzip",),
            quanta=(1.0,), delays=(0,),
        )
        assert len(result.summaries) == 2

    def test_detector_variants(self):
        from repro.experiments import ablations

        result = ablations.run_detectors(n_cycles=4_000, benchmarks=("gzip",))
        assert len(result.summaries) == 2

    def test_registered_as_extensions(self):
        from repro.experiments.registry import EXPERIMENTS, EXTENSIONS

        assert set(EXTENSIONS) == {
            "ablation-two-tier",
            "ablation-band-coverage",
            "ablation-sensing",
            "ablation-detectors",
            "ablation-fault-injection",
            "lowfreq-resonance",
            "convolution-baseline",
            "multiwindow-damping",
            "design-space",
        }
        assert not set(EXTENSIONS) & set(EXPERIMENTS)

    def test_run_experiment_resolves_extensions(self):
        result = run_experiment("ablation-sensing", quick=True)
        assert hasattr(result, "render")


class TestPersistence:
    def test_save_result_writes_text_and_svg(self, tmp_path):
        from repro.experiments import figure1, persistence

        result = figure1.run()
        written = persistence.save_result(result, str(tmp_path), "figure1")
        assert any(path.endswith("figure1.txt") for path in written)
        assert any(path.endswith("figure1_impedance.svg") for path in written)
        for path in written:
            assert (tmp_path / path.split("/")[-1]).exists()

    def test_save_result_without_charts(self, tmp_path):
        from repro.experiments import persistence, table1

        written = persistence.save_result(table1.run(), str(tmp_path), "table1")
        assert len(written) == 1

    def test_experiment_out_saves_each_artifact(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "experiment", "figure1", "table1", "--quick",
            "--out", str(tmp_path),
        ]) == 0
        captured = capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "claims.txt", "figure1.txt", "figure1_impedance.svg",
            "table1.txt",
        ]
        # Stdout stays the rendered artifacts, one blank line after each.
        assert captured.out == "".join(
            (tmp_path / f"{name}.txt").read_text() + "\n"
            for name in ("figure1", "table1")
        )
        log = captured.err.splitlines()
        assert log[0].startswith("=== host: cpu_count ")
        assert "NumPy" in log[0]
        assert log[1].startswith("=== figure1 done in ")
        assert log[2].startswith("=== table1 done in ")
        assert log[2].endswith(" MB ===")
