"""Reporting helpers: monospace tables and ASCII charts for benches."""

from repro.analysis.tables import (
    bar,
    format_bar_chart,
    format_series,
    format_table,
    percent,
    summary_table,
)

__all__ = [
    "bar",
    "format_bar_chart",
    "format_series",
    "format_table",
    "percent",
    "summary_table",
]
