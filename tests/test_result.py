"""Tests for QueryResult and the collect() driver."""

import pytest

from repro.exec.operators.scan import TableScan
from repro.exec.result import QueryResult, collect
from repro.storage.column import ColumnVector
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType


def make_result(values):
    schema = Schema([Field("v", DataType.INT64)])
    return QueryResult(
        schema, {"v": ColumnVector.from_pylist(DataType.INT64, values)}
    )


class TestQueryResult:
    def test_basic_accessors(self):
        result = make_result([1, 2, None])
        assert result.row_count == 3
        assert result.column_names == ("v",)
        assert result.column("v").to_pylist() == [1, 2, None]
        assert result.to_pylist() == [(1,), (2,), (None,)]

    def test_scalar(self):
        assert make_result([42]).scalar() == 42

    def test_scalar_shape_checked(self):
        with pytest.raises(ValueError):
            make_result([1, 2]).scalar()
        with pytest.raises(ValueError):
            make_result([]).scalar()

    def test_empty(self):
        result = QueryResult.empty(Schema([Field("x", DataType.STRING)]))
        assert result.row_count == 0
        assert result.column_names == ("x",)

    def test_pretty_truncates(self):
        result = make_result(list(range(30)))
        text = result.pretty(limit=5)
        assert "(30 rows total)" in text
        assert text.splitlines()[0].strip() == "v"

    def test_pretty_formats_null_and_float(self):
        schema = Schema([Field("f", DataType.FLOAT64)])
        result = QueryResult(
            schema,
            {"f": ColumnVector.from_pylist(DataType.FLOAT64, [1.5, None])},
        )
        text = result.pretty()
        assert "NULL" in text
        assert "1.5" in text

    def three_columns(self, n):
        schema = Schema(
            [
                Field("k", DataType.INT64),
                Field("f", DataType.FLOAT64),
                Field("s", DataType.STRING),
            ]
        )
        columns = {
            "k": ColumnVector.from_pylist(DataType.INT64, [1, None, 30, 4][:n]),
            "f": ColumnVector.from_pylist(
                DataType.FLOAT64, [1.5, None, 2.0 / 3, 1e9][:n]
            ),
            "s": ColumnVector.from_pylist(
                DataType.STRING, ["a", "bb", None, "dddd"][:n]
            ),
        }
        return QueryResult(schema, columns)

    @pytest.mark.parametrize(
        "n, expected",
        [
            (0, ["k | f | s", "--+---+--"]),
            (
                2,
                [
                    "k    | f    | s ",
                    "-----+------+---",
                    "1    | 1.5  | a ",
                    "NULL | NULL | bb",
                ],
            ),
            (
                3,
                [
                    "k    | f        | s   ",
                    "-----+----------+-----",
                    "1    | 1.5      | a   ",
                    "NULL | NULL     | bb  ",
                    "30   | 0.666667 | NULL",
                ],
            ),
            (
                4,  # the unprinted 1e+09 row widens nothing
                [
                    "k    | f        | s   ",
                    "-----+----------+-----",
                    "1    | 1.5      | a   ",
                    "NULL | NULL     | bb  ",
                    "30   | 0.666667 | NULL",
                    "... (4 rows total)",
                ],
            ),
        ],
    )
    def test_pretty_below_at_and_above_limit(self, n, expected):
        assert self.three_columns(n).pretty(limit=3) == "\n".join(expected)

    def test_pretty_converts_only_the_printed_rows(self, monkeypatch):
        converted = []
        original = ColumnVector.to_pylist

        def recording(vector):
            converted.append(len(vector))
            return original(vector)

        monkeypatch.setattr(ColumnVector, "to_pylist", recording)
        text = make_result(list(range(100_000))).pretty(limit=5)
        assert text.endswith("... (100000 rows total)")
        assert converted == [5]


class TestCollect:
    def test_collect_drains_and_closes(self):
        table = Table.from_pydict(
            "t", Schema([Field("v", DataType.INT64)]), {"v": [1, 2, 3]}
        )
        scan = TableScan(table, batch_size=2)
        result = collect(scan)
        assert result.column("v").to_pylist() == [1, 2, 3]
        # close() ran: the cursor was reset.
        assert scan._cursor is None

    def test_collect_empty(self):
        table = Table.from_pydict(
            "t", Schema([Field("v", DataType.INT64)]), {"v": []}
        )
        result = collect(TableScan(table))
        assert result.row_count == 0
