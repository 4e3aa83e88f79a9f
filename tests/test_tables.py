"""Unit tests for the reporting helpers."""

import pytest

from repro.analysis import (
    bar,
    format_bar_chart,
    format_series,
    format_table,
    percent,
    summary_table,
)
from repro.sim.jobs import CAP_COLUMNS


class TestFormatTable:
    def test_alignment_and_rows(self):
        out = format_table(["a", "bb"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert lines[0].startswith("a")
        assert "333" in lines[3]

    def test_title(self):
        out = format_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_floats_formatted(self):
        out = format_table(["x"], [[1.23456]])
        assert "1.235" in out

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])


class TestPercentAndBar:
    def test_percent(self):
        assert percent(0.123) == "+12.3%"
        assert percent(-0.05) == "-5.0%"

    def test_bar_full_and_empty(self):
        assert bar(1.0, scale=1.0, width=10) == "#" * 10
        assert bar(0.0, scale=1.0, width=10) == ""

    def test_bar_clamps(self):
        assert bar(5.0, scale=1.0, width=10) == "#" * 10
        assert bar(-1.0, scale=1.0, width=10) == ""

    def test_bar_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            bar(0.5, scale=0.0)


class TestCharts:
    def test_bar_chart_lines(self):
        out = format_bar_chart([("a", 0.5), ("long", 0.25)], scale=1.0,
                               width=8, title="chart")
        lines = out.splitlines()
        assert lines[0] == "chart"
        assert len(lines) == 3
        assert "50.0%" in lines[1]

    def test_series(self):
        out = format_series([1.0, 2.0], [10.0, 20.0], "t", "v",
                            y_format="{:.0f}")
        assert "10" in out and "20" in out

    def test_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series([1.0], [1.0, 2.0], "t", "v")


class TestCapSummaryTable:
    ROW = {
        "workload": "MID1", "governor": "Cap-20.00W",
        "budget_fraction": 0.9, "budget_w": 20.0, "avg_power_w": 19.2,
        "violations": 0, "time_over_frac": 0.0, "infeasible_epochs": 1,
        "min_perf": 0.95, "worst_cpi_increase": 0.05,
        "system_savings": 0.08,
    }

    def test_renders_all_columns(self):
        out = summary_table(CAP_COLUMNS, [self.ROW], "power-cap sweep")
        assert "power-cap sweep" in out
        assert "90%" in out
        assert "20.00" in out
        assert "0.950" in out
        assert "+5.0%" in out and "+8.0%" in out

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            summary_table(CAP_COLUMNS, [])

    def test_none_budget_columns_render_as_dash(self):
        throttle = dict(self.ROW, governor="Static-200MHz",
                        budget_fraction=None, budget_w=None,
                        violations=None, time_over_frac=None,
                        infeasible_epochs=None)
        out = summary_table(CAP_COLUMNS, [throttle], title=None)
        row_line = out.splitlines()[-1]
        assert row_line.split().count("-") >= 5

    def test_single_row_single_app_mix(self):
        row = dict(self.ROW, workload="ILP1", min_perf=1.0)
        out = summary_table(CAP_COLUMNS, [row])
        assert "ILP1" in out
        assert "1.000" in out
