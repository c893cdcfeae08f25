"""Unit and property tests for HashAggregate and Distinct."""

import math
import struct
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import PlanError, TypeMismatchError
from repro.exec.batch import RecordBatch
from repro.exec.operators import aggregate
from repro.exec.operators.aggregate import (
    AggregateSpec,
    HashAggregate,
    _compute_scalar,
)
from repro.exec.operators.distinct import Distinct
from repro.exec.operators.scan import TableScan
from repro.exec.parallel.terminals import BatchSource
from repro.exec.result import collect
from repro.plan.optimizer import Optimizer
from repro.plan.physical import PhysicalPlanner
from repro.sql.binder import Binder
from repro.sql.parser import parse_statement
from repro.storage.database import Database
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType


def make_table(data, schema=None, partition_count=2):
    if schema is None:
        schema = Schema(
            [Field("g", DataType.STRING), Field("v", DataType.INT64)]
        )
    return Table.from_pydict("t", schema, data, partition_count=partition_count)


@pytest.fixture
def grouped_table():
    return make_table(
        {
            "g": ["a", "b", "a", "b", "a", None, "c"],
            "v": [1, 2, 3, None, 5, 6, None],
        }
    )


class TestAggregateSpec:
    def test_validation(self):
        with pytest.raises(PlanError):
            AggregateSpec("median", "v", "m")
        with pytest.raises(PlanError):
            AggregateSpec("count_star", "v", "n")
        with pytest.raises(PlanError):
            AggregateSpec("sum", None, "s")

    def test_output_types(self):
        schema = Schema([Field("v", DataType.INT64)])
        assert AggregateSpec("count", "v", "n").output_field(schema).dtype == DataType.INT64
        assert AggregateSpec("avg", "v", "a").output_field(schema).dtype == DataType.FLOAT64
        assert AggregateSpec("sum", "v", "s").output_field(schema).dtype == DataType.INT64
        assert AggregateSpec("min", "v", "m").output_field(schema).dtype == DataType.INT64

    def test_sum_requires_numeric(self):
        schema = Schema([Field("s", DataType.STRING)])
        with pytest.raises(TypeMismatchError):
            AggregateSpec("sum", "s", "x").output_field(schema)


class TestGlobalAggregates:
    def test_all_functions(self, grouped_table):
        result = collect(
            HashAggregate(
                TableScan(grouped_table),
                [],
                [
                    AggregateSpec("count_star", None, "n"),
                    AggregateSpec("count", "v", "cv"),
                    AggregateSpec("count_distinct", "v", "dv"),
                    AggregateSpec("sum", "v", "sv"),
                    AggregateSpec("min", "v", "mn"),
                    AggregateSpec("max", "v", "mx"),
                    AggregateSpec("avg", "v", "av"),
                ],
            )
        )
        row = result.to_pylist()[0]
        assert row == (7, 5, 5, 17, 1, 6, 3.4)

    def test_empty_input(self):
        table = make_table({"g": [], "v": []})
        result = collect(
            HashAggregate(
                TableScan(table),
                [],
                [
                    AggregateSpec("count_star", None, "n"),
                    AggregateSpec("sum", "v", "s"),
                    AggregateSpec("min", "v", "m"),
                ],
            )
        )
        assert result.to_pylist() == [(0, None, None)]

    def test_all_null_column(self):
        table = make_table({"g": ["a"], "v": [None]})
        result = collect(
            HashAggregate(
                TableScan(table),
                [],
                [
                    AggregateSpec("count", "v", "c"),
                    AggregateSpec("avg", "v", "a"),
                ],
            )
        )
        assert result.to_pylist() == [(0, None)]


class TestGroupedAggregates:
    def test_group_by_string(self, grouped_table):
        result = collect(
            HashAggregate(
                TableScan(grouped_table),
                ["g"],
                [
                    AggregateSpec("count_star", None, "n"),
                    AggregateSpec("sum", "v", "s"),
                ],
            )
        )
        rows = {row[0]: row[1:] for row in result.to_pylist()}
        assert rows["a"] == (3, 9)
        assert rows["b"] == (2, 2)
        assert rows["c"] == (1, None)  # v is NULL for c
        assert rows[None] == (1, 6)  # NULL keys form one group

    def test_multi_key_grouping(self):
        table = make_table(
            {
                "g": ["a", "a", "b", "a"],
                "v": [1, 1, 1, 2],
            }
        )
        result = collect(
            HashAggregate(
                TableScan(table),
                ["g", "v"],
                [AggregateSpec("count_star", None, "n")],
            )
        )
        rows = {(row[0], row[1]): row[2] for row in result.to_pylist()}
        assert rows == {("a", 1): 2, ("a", 2): 1, ("b", 1): 1}

    def test_count_distinct_per_group(self):
        table = make_table(
            {
                "g": ["a", "a", "a", "b", "b"],
                "v": [1, 1, 2, None, 3],
            }
        )
        result = collect(
            HashAggregate(
                TableScan(table),
                ["g"],
                [AggregateSpec("count_distinct", "v", "d")],
            )
        )
        rows = dict(result.to_pylist())
        assert rows == {"a": 2, "b": 1}

    def test_min_max_strings(self):
        table = make_table(
            {"g": ["x", "x", "y"], "v": [1, 2, 3]},
            schema=Schema([Field("g", DataType.STRING), Field("v", DataType.INT64)]),
        )
        result = collect(
            HashAggregate(
                TableScan(table),
                ["v"],
                [AggregateSpec("min", "g", "mn"), AggregateSpec("max", "g", "mx")],
            )
        )
        assert result.row_count == 3

    @given(st.lists(st.one_of(st.none(), st.integers(0, 5)), max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_grouped_count_matches_python(self, values):
        table = make_table({"g": ["k"] * len(values), "v": values})
        result = collect(
            HashAggregate(
                TableScan(table, batch_size=7),
                ["v"],
                [AggregateSpec("count_star", None, "n")],
            )
        )
        got = dict(result.to_pylist())
        expected: dict = {}
        for value in values:
            expected[value] = expected.get(value, 0) + 1
        assert got == expected


#: Past 2**53 a float64 accumulator drops the low bits of an int sum.
BIG = 2**53 + 1


class TestIntegerSumIsExact:
    """SUM over INT64 is computed in int64, scalar and grouped alike."""

    SPECS = [
        AggregateSpec("sum", "v", "s"),
        AggregateSpec("count", "v", "c"),
        AggregateSpec("min", "v", "lo"),
        AggregateSpec("max", "v", "hi"),
    ]

    def test_scalar(self):
        table = make_table({"g": ["a"] * 3, "v": [BIG, 1, 1]})
        result = collect(HashAggregate(TableScan(table), [], self.SPECS))
        assert result.to_pylist() == [(BIG + 2, 3, 1, BIG)]

    def test_grouped_with_nulls_mixed_in(self):
        table = make_table(
            {
                "g": ["a", "b", "a", None, "a", "b", "c", None],
                "v": [BIG, -BIG, 1, BIG, 1, None, None, 2],
            }
        )
        result = collect(HashAggregate(TableScan(table), ["g"], self.SPECS))
        assert sorted(result.to_pylist(), key=repr) == sorted(
            [
                ("a", BIG + 2, 3, 1, BIG),
                ("b", -BIG, 1, -BIG, -BIG),
                ("c", None, 0, None, None),
                (None, BIG + 2, 2, 2, BIG),
            ],
            key=repr,
        )

    def test_scalar_with_nulls_mixed_in(self):
        table = make_table({"g": ["a"] * 4, "v": [None, BIG, None, 2]})
        result = collect(HashAggregate(TableScan(table), [], self.SPECS))
        assert result.to_pylist() == [(BIG + 2, 2, 2, BIG)]

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT SUM(v) AS s, COUNT(*) AS n FROM t",
            "SELECT g, SUM(v) AS s FROM t GROUP BY g ORDER BY g",
        ],
    )
    def test_parallel_partials_merge_exactly(self, sql):
        values = [BIG + i if i % 5 else None for i in range(96)]
        groups = [i % 3 for i in range(96)]
        db = Database()
        db.create_table_from_pydict(
            "t",
            Schema([Field("g", DataType.INT64), Field("v", DataType.INT64)]),
            {"g": groups, "v": values},
            partition_count=3,
        )
        logical = Optimizer(db.catalog).optimize(
            Binder(db.catalog).bind_select(parse_statement(sql))
        )
        plan = PhysicalPlanner(parallelism=2, morsel_size=16).plan(logical)
        assert "dop=2" in plan.explain()
        rows = collect(plan).to_pylist()
        serial = PhysicalPlanner(parallelism=1).plan(logical)
        assert rows == collect(serial).to_pylist()
        if "GROUP BY" in sql:
            assert rows == [
                (g, sum(v for k, v in zip(groups, values) if k == g and v))
                for g in range(3)
            ]
        else:
            assert rows == [(sum(v for v in values if v), 96)]

    # Four values in [-2**61, 2**61 - 1] always sum inside INT64; the
    # two extremes are pinned as explicit examples.
    @given(
        st.lists(
            st.one_of(st.none(), st.integers(-(2**61), 2**61 - 1)),
            min_size=1,
            max_size=4,
        )
    )
    @example([-(2**61)] * 4)
    @example([2**61 - 1] * 4)
    @settings(max_examples=60, deadline=None)
    def test_sum_matches_python_wherever_it_fits(self, values):
        table = make_table({"g": ["a"] * len(values), "v": values})
        present = [value for value in values if value is not None]
        expected = sum(present) if present else None
        for keys in ([], ["g"]):
            result = collect(
                HashAggregate(
                    TableScan(table), keys, [AggregateSpec("sum", "v", "s")]
                )
            )
            assert result.to_pylist()[0][-1] == expected

    def test_float_sum_and_avg_keep_float_semantics(self):
        schema = Schema([Field("g", DataType.STRING), Field("v", DataType.FLOAT64)])
        table = make_table({"g": ["a", "a", "b"], "v": [0.5, None, 2.25]}, schema)
        specs = [AggregateSpec("sum", "v", "s"), AggregateSpec("avg", "v", "a")]
        assert collect(HashAggregate(TableScan(table), [], specs)).to_pylist() == [
            (2.75, 1.375)
        ]
        assert sorted(
            collect(HashAggregate(TableScan(table), ["g"], specs)).to_pylist()
        ) == [("a", 0.5, 0.5), ("b", 2.25, 2.25)]


#: ``FOLD_ROWS`` settings: every batch its own partial row, pairs of
#: four-row batches held and reduced together, and the whole (small)
#: input reduced at once.
FOLDS = [1, 6, aggregate.FOLD_ROWS]


class TestFoldMatchesDrained:
    """Ungrouped aggregation folds batches into partial rows; the answer
    is the one reduction over the whole, concatenated input."""

    SCHEMA = Schema(
        [
            Field("i", DataType.INT64),
            Field("f", DataType.FLOAT64),
            Field("s", DataType.STRING),
        ]
    )
    #: Four rows a batch: a NULL in the first, an all-NULL second, INT64
    #: sums that wrap past 2**63, a NaN, and a short last batch.
    DATA = {
        "i": [2**62 - 1, None, -(2**62), 7]
        + [None] * 4
        + [2**62 + 5, 2**62 - 3, 2**62, -1]
        + [2**62 - 9, 3],
        "f": [1.5, None, -2.0, 0.25]
        + [None] * 4
        + [float("nan"), 3.0, None, -0.5]
        + [9.0, -7.5],
        "s": ["m", None, "b", "zz"] + [None] * 4 + ["a", "q", None, "c"] + ["y", "k"],
    }
    SPECS = [
        AggregateSpec("count_star", None, "n"),
        AggregateSpec("count", "i", "ci"),
        AggregateSpec("sum", "i", "si"),
        AggregateSpec("avg", "i", "ai"),
        AggregateSpec("min", "i", "lo"),
        AggregateSpec("max", "i", "hi"),
        AggregateSpec("min", "f", "flo"),
        AggregateSpec("max", "f", "fhi"),
        AggregateSpec("min", "s", "slo"),
        AggregateSpec("max", "s", "shi"),
    ]

    def drained(self, batches):
        """``_compute_scalar`` over the concatenated input, per spec."""
        kept = [batch for batch in batches if len(batch)]
        data = RecordBatch.concat(kept) if kept else RecordBatch.empty(self.SCHEMA)
        schema = HashAggregate(BatchSource(self.SCHEMA, []), [], self.SPECS).schema
        return tuple(
            _compute_scalar(spec, data, schema).to_pylist()[0] for spec in self.SPECS
        )

    @staticmethod
    def same(left, right):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            if isinstance(a, float) and math.isnan(a):
                assert isinstance(b, float) and math.isnan(b)
            elif isinstance(a, float):
                assert struct.pack("<d", a) == struct.pack("<d", b)
            else:
                assert a == b

    def batches(self, batch_size):
        table = Table.from_pydict("t", self.SCHEMA, self.DATA)
        scan = TableScan(table, batch_size=batch_size)
        scan.open()
        batches = []
        while (batch := scan.next_batch()) is not None:
            batches.append(batch)
        scan.close()
        return batches

    @pytest.mark.parametrize("fold_rows", FOLDS)
    def test_scan_in_batches_of_four(self, fold_rows, monkeypatch):
        monkeypatch.setattr(aggregate, "FOLD_ROWS", fold_rows)
        table = Table.from_pydict("t", self.SCHEMA, self.DATA)
        folded = collect(
            HashAggregate(TableScan(table, batch_size=4), [], self.SPECS)
        ).to_pylist()
        assert len(folded) == 1
        batches = self.batches(4)
        assert [len(batch) for batch in batches] == [4, 4, 4, 2]
        self.same(folded[0], self.drained(batches))
        # The INT64 sum wrapped: the drained reference is not Python's.
        total = sum(value for value in self.DATA["i"] if value is not None)
        assert folded[0][2] != total
        assert folded[0][2] == (total + 2**63) % 2**64 - 2**63

    @pytest.mark.parametrize("fold_rows", FOLDS)
    def test_empty_batches_and_no_input(self, fold_rows, monkeypatch):
        monkeypatch.setattr(aggregate, "FOLD_ROWS", fold_rows)
        batches = self.batches(4)
        empty = RecordBatch.empty(self.SCHEMA)
        for source in ([empty, *batches[:2], empty, *batches[2:], empty], [empty], []):
            folded = collect(
                HashAggregate(BatchSource(self.SCHEMA, source), [], self.SPECS)
            ).to_pylist()
            self.same(folded[0], self.drained(source))
        assert collect(
            HashAggregate(BatchSource(self.SCHEMA, []), [], self.SPECS)
        ).to_pylist() == [(0, 0) + (None,) * 8]

    @given(
        st.lists(
            st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1)), max_size=24
        ),
        st.integers(1, 5),
        st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_int64_fold_matches_drained_at_any_batch_size(
        self, values, size, fold_rows
    ):
        data = {
            "i": values,
            "f": [None] * len(values),
            "s": [None] * len(values),
        }
        table = Table.from_pydict("t", self.SCHEMA, data)
        specs = self.SPECS[:6]
        with mock.patch.object(aggregate, "FOLD_ROWS", fold_rows):
            folded = collect(
                HashAggregate(TableScan(table, batch_size=size), [], specs)
            ).to_pylist()[0]
        whole = collect(
            HashAggregate(TableScan(table, batch_size=len(values) + 1), [], specs)
        ).to_pylist()[0]
        self.same(folded, whole)

    @pytest.mark.parametrize("fold_rows", [1, aggregate.FOLD_ROWS])
    def test_int64_aggregates_are_bit_identical_to_parallel(
        self, fold_rows, monkeypatch
    ):
        monkeypatch.setattr(aggregate, "FOLD_ROWS", fold_rows)
        specs = "COUNT(*) AS n, COUNT(i) AS ci, SUM(i) AS si, AVG(i) AS ai, " \
            "MIN(i) AS lo, MAX(i) AS hi"
        values = [
            None if k % 7 == 3 else (2**62 - k if k % 2 else -(2**62) + 3 * k)
            for k in range(96)
        ]
        db = Database()
        db.create_table_from_pydict(
            "t",
            Schema([Field("i", DataType.INT64)]),
            {"i": values},
            partition_count=3,
        )
        logical = Optimizer(db.catalog).optimize(
            Binder(db.catalog).bind_select(
                parse_statement(f"SELECT {specs} FROM t")
            )
        )
        parallel = PhysicalPlanner(parallelism=2, morsel_size=16).plan(logical)
        assert "dop=2" in parallel.explain()
        serial = PhysicalPlanner(parallelism=1).plan(logical)
        assert "ParallelAggregate" not in serial.explain()
        self.same(
            collect(serial).to_pylist()[0], collect(parallel).to_pylist()[0]
        )


class TestDistinct:
    def test_distinct_single_column_value_order(self):
        # The single-column fast path emits value order (SQL leaves
        # DISTINCT order unspecified).
        table = make_table({"g": ["b", "a", "b", "c", "a"], "v": [1] * 5})
        result = collect(Distinct(TableScan(table, columns=["g"])))
        assert result.column("g").to_pylist() == ["a", "b", "c"]

    def test_distinct_multi_column_first_occurrence_order(self):
        table = make_table({"g": ["b", "a", "b", "a"], "v": [1, 2, 1, 2]})
        result = collect(Distinct(TableScan(table)))
        assert result.to_pylist() == [("b", 1), ("a", 2)]

    def test_distinct_multi_column(self):
        table = make_table({"g": ["a", "a", "a"], "v": [1, 2, 1]})
        result = collect(Distinct(TableScan(table)))
        assert sorted(result.to_pylist()) == [("a", 1), ("a", 2)]

    def test_distinct_with_nulls(self):
        table = make_table({"g": [None, "a", None], "v": [1, 1, 1]})
        result = collect(Distinct(TableScan(table, columns=["g"])))
        # Single-column path: values first, NULL last.
        assert result.column("g").to_pylist() == ["a", None]

    def test_distinct_empty(self):
        table = make_table({"g": [], "v": []})
        result = collect(Distinct(TableScan(table)))
        assert result.row_count == 0

    @given(st.lists(st.one_of(st.none(), st.integers(0, 10)), max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_distinct_matches_set_semantics(self, values):
        table = make_table({"g": ["k"] * len(values), "v": values})
        result = collect(Distinct(TableScan(table, columns=["v"], batch_size=9)))
        got = result.column("v").to_pylist()
        assert len(got) == len(set(values))
        assert set(map(str, got)) == set(map(str, set(values)))
