"""Benchmark support: timing harness and result-table reporting."""

from repro.bench.harness import measure, MeasuredRun
from repro.bench.reporting import format_table, format_series

__all__ = ["measure", "MeasuredRun", "format_table", "format_series"]
