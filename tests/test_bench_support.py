"""Tests for the benchmark support modules (harness, reporting)."""

from repro.bench.harness import MeasuredRun, measure
from repro.bench.reporting import format_series, format_table


class TestMeasure:
    def test_returns_result_and_positive_time(self):
        run = measure(lambda: sum(range(1000)), repeats=2, warmup=1)
        assert run.result == sum(range(1000))
        assert run.seconds > 0
        assert run.repeats == 2
        assert len(run.all_seconds) == 2
        assert run.seconds == min(run.all_seconds)

    def test_milliseconds(self):
        run = MeasuredRun(0.5, 1, (0.5,), None)
        assert run.milliseconds == 500.0

    def test_warmup_runs(self):
        calls = []
        measure(lambda: calls.append(1), repeats=2, warmup=3)
        assert len(calls) == 5


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            "demo", ["col", "value"], [["a", 1.23456], ["bbbb", 2]]
        )
        lines = text.splitlines()
        assert lines[0] == "== demo =="
        assert "col" in lines[1] and "value" in lines[1]
        assert "1.235" in text  # floats to 3 decimals
        assert "bbbb" in text

    def test_empty_rows(self):
        text = format_table("t", ["a"], [])
        assert "== t ==" in text


class TestFormatSeries:
    def test_one_row_per_x(self):
        text = format_series(
            "sweep",
            "rate",
            [0.1, 0.2],
            {"fast": [1.0, 2.0], "slow": [3.0, 4.0]},
        )
        lines = text.splitlines()
        assert "fast [ms]" in lines[1]
        assert "slow [ms]" in lines[1]
        assert len(lines) == 5  # title + header + rule + 2 rows
        assert "0.1" in lines[3]

    def test_custom_unit(self):
        text = format_series("s", "x", [1], {"a": [2.0]}, unit="MB")
        assert "a [MB]" in text
