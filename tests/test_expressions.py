"""Unit tests for vectorized expression evaluation."""

import datetime as dt
import operator

import pytest

import repro
from repro.errors import ExecutionError, TypeMismatchError
from repro.exec.batch import RecordBatch
from repro.exec.expressions import (
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    IsNull,
    Literal,
    Not,
    Or,
    literal,
    predicate_mask,
)
from repro.storage.column import ColumnVector
from repro.storage.schema import Field, Schema
from repro.types import DataType


@pytest.fixture
def batch() -> RecordBatch:
    schema = Schema(
        [
            Field("i", DataType.INT64),
            Field("f", DataType.FLOAT64),
            Field("s", DataType.STRING),
            Field("d", DataType.DATE),
        ]
    )
    return RecordBatch(
        schema,
        {
            "i": ColumnVector.from_pylist(DataType.INT64, [1, 2, None, 4]),
            "f": ColumnVector.from_pylist(DataType.FLOAT64, [0.5, 1.5, 2.5, 3.5]),
            "s": ColumnVector.from_pylist(DataType.STRING, ["a", "b", "c", None]),
            "d": ColumnVector.from_pylist(
                DataType.DATE,
                [dt.date(2020, 1, 1), dt.date(2020, 6, 1), dt.date(2021, 1, 1), None],
            ),
        },
    )


class TestColumnRefAndLiteral:
    def test_column_ref(self, batch):
        result = ColumnRef("i").evaluate(batch)
        assert result.to_pylist() == [1, 2, None, 4]
        assert ColumnRef("i").output_type(batch.schema) == DataType.INT64
        assert ColumnRef("i").referenced_columns() == {"i"}

    def test_literal_broadcast(self, batch):
        result = Literal(7).evaluate(batch)
        assert result.to_pylist() == [7, 7, 7, 7]

    def test_null_literal_needs_dtype(self, batch):
        with pytest.raises(TypeMismatchError):
            Literal(None).evaluate(batch)
        result = Literal(None, DataType.INT64).evaluate(batch)
        assert result.to_pylist() == [None] * 4

    def test_literal_helper_coerces_dates(self):
        expression = literal(dt.date(2020, 6, 1))
        assert expression.dtype == DataType.DATE
        assert isinstance(expression.value, int)


FLIPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class TestComparisons:
    def test_int_comparison_with_nulls(self, batch):
        result = Comparison(">", ColumnRef("i"), Literal(1)).evaluate(batch)
        assert result.to_pylist() == [False, True, None, True]

    def test_predicate_mask_null_is_false(self, batch):
        mask = predicate_mask(Comparison(">", ColumnRef("i"), Literal(1)), batch)
        assert mask.tolist() == [False, True, False, True]

    def test_mixed_numeric_widening(self, batch):
        result = Comparison("<", ColumnRef("i"), ColumnRef("f")).evaluate(batch)
        assert result.to_pylist() == [False, False, None, False]

    def test_string_comparison(self, batch):
        result = Comparison("=", ColumnRef("s"), Literal("b")).evaluate(batch)
        assert result.to_pylist() == [False, True, False, None]

    def test_string_literal_keeps_its_trailing_nuls(self):
        """As a NumPy ``str`` scalar, ``'a\\x00'`` would lose its NUL:
        it would equal ``'a'`` and order below it."""
        values = ["a", "a\x00", "b", "a\x00\x00"]
        strings = RecordBatch(
            Schema([Field("s", DataType.STRING)]),
            {"s": ColumnVector.from_pylist(DataType.STRING, values)},
        )
        for op, compare in [
            ("=", operator.eq), ("!=", operator.ne), ("<", operator.lt),
            ("<=", operator.le), (">", operator.gt), (">=", operator.ge),
        ]:
            for needle in ("a\x00", "a", "a\x00\x00"):
                expected = [compare(value, needle) for value in values]
                for comparison in (
                    Comparison(op, ColumnRef("s"), Literal(needle)),
                    Comparison(FLIPPED[op], Literal(needle), ColumnRef("s")),
                ):
                    assert comparison.evaluate(strings).to_pylist() == expected

    def test_string_literal_keeps_its_trailing_nuls_in_where(self):
        db = repro.connect()
        db.sql("CREATE TABLE s (v VARCHAR)")
        db.table("s").insert_rows([["a"], ["a\x00"], ["b"]])
        rows = db.sql("SELECT v FROM s WHERE v = 'a\x00'").to_pylist()
        assert rows == [("a\x00",)]
        assert db.sql("SELECT v FROM s WHERE v < 'a\x00'").to_pylist() == [("a",)]
        assert db.sql("SELECT v FROM s WHERE v > 'a'").to_pylist() == [
            ("a\x00",), ("b",)
        ]

    def test_date_comparison(self, batch):
        result = Comparison(
            ">=", ColumnRef("d"), literal(dt.date(2020, 6, 1))
        ).evaluate(batch)
        assert result.to_pylist() == [False, True, True, None]

    def test_incompatible_types(self, batch):
        with pytest.raises(TypeMismatchError):
            Comparison("=", ColumnRef("s"), Literal(1)).evaluate(batch)

    def test_unknown_operator(self):
        with pytest.raises(ExecutionError):
            Comparison("~", ColumnRef("i"), Literal(1))

    def test_all_operators(self, batch):
        for op, expected in [
            ("=", [False, True, None, False]),
            ("!=", [True, False, None, True]),
            ("<", [True, False, None, False]),
            ("<=", [True, True, None, False]),
            (">", [False, False, None, True]),
            (">=", [False, True, None, True]),
        ]:
            result = Comparison(op, ColumnRef("i"), Literal(2)).evaluate(batch)
            assert result.to_pylist() == expected, op


class TestBooleanLogic:
    def test_and_kleene(self, batch):
        # i > 1 is [F, T, NULL, T]; f < 2 is [T, T, F, F]
        result = And(
            Comparison(">", ColumnRef("i"), Literal(1)),
            Comparison("<", ColumnRef("f"), Literal(2.0)),
        ).evaluate(batch)
        # NULL AND False -> False (definite), others standard.
        assert result.to_pylist() == [False, True, False, False]

    def test_or_kleene(self, batch):
        # i > 1 is [F, T, NULL, T]; f > 2 is [F, F, T, T]
        result = Or(
            Comparison(">", ColumnRef("i"), Literal(1)),
            Comparison(">", ColumnRef("f"), Literal(2.0)),
        ).evaluate(batch)
        # NULL OR True -> True (definite).
        assert result.to_pylist() == [False, True, True, True]

    def test_not(self, batch):
        result = Not(Comparison(">", ColumnRef("i"), Literal(1))).evaluate(batch)
        assert result.to_pylist() == [True, False, None, False]

    def test_is_null(self, batch):
        assert IsNull(ColumnRef("i")).evaluate(batch).to_pylist() == [
            False,
            False,
            True,
            False,
        ]
        assert IsNull(ColumnRef("i"), negated=True).evaluate(batch).to_pylist() == [
            True,
            True,
            False,
            True,
        ]


class TestArithmetic:
    def test_add_int(self, batch):
        result = Arithmetic("+", ColumnRef("i"), Literal(10)).evaluate(batch)
        assert result.dtype == DataType.INT64
        assert result.to_pylist() == [11, 12, None, 14]

    def test_divide_promotes_to_float(self, batch):
        result = Arithmetic("/", ColumnRef("i"), Literal(2)).evaluate(batch)
        assert result.dtype == DataType.FLOAT64
        assert result.to_pylist() == [0.5, 1.0, None, 2.0]

    def test_divide_by_zero_is_null(self, batch):
        result = Arithmetic("/", ColumnRef("i"), Literal(0)).evaluate(batch)
        assert result.to_pylist() == [None, None, None, None]

    def test_multiply_mixed(self, batch):
        result = Arithmetic("*", ColumnRef("i"), ColumnRef("f")).evaluate(batch)
        assert result.dtype == DataType.FLOAT64
        assert result.to_pylist() == [0.5, 3.0, None, 14.0]

    def test_string_arithmetic_rejected(self, batch):
        with pytest.raises(TypeMismatchError):
            Arithmetic("+", ColumnRef("s"), Literal(1)).evaluate(batch)

    def test_output_type(self, batch):
        assert Arithmetic("+", ColumnRef("i"), Literal(1)).output_type(
            batch.schema
        ) == DataType.INT64
        assert Arithmetic("/", ColumnRef("i"), Literal(1)).output_type(
            batch.schema
        ) == DataType.FLOAT64


class TestStr:
    def test_rendering(self):
        expression = And(
            Comparison(">", ColumnRef("x"), Literal(1)),
            IsNull(ColumnRef("y"), negated=True),
        )
        assert str(expression) == "((x > 1) AND (y IS NOT NULL))"
