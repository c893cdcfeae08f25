"""Tests for IN-list and BETWEEN predicates (parser, binder, execution)."""

import pytest

from repro import Database
from repro.errors import SqlSyntaxError
from repro.exec.batch import RecordBatch
from repro.exec.expressions import ColumnRef, InList
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.storage.column import ColumnVector
from repro.storage.schema import Field, Schema
from repro.types import DataType


@pytest.fixture
def db() -> Database:
    db = Database()
    db.sql("CREATE TABLE t (c BIGINT, s VARCHAR(5))")
    db.sql(
        "INSERT INTO t VALUES (1,'a'), (2,'b'), (3,'c'), (NULL,'d'), (5,'e')"
    )
    return db


class TestParser:
    def test_in(self):
        statement = parse_statement("SELECT c FROM t WHERE c IN (1, 2, 3)")
        where = statement.where
        assert isinstance(where, ast.SqlIn)
        assert where.values == (1, 2, 3)
        assert not where.negated

    def test_not_in(self):
        statement = parse_statement("SELECT c FROM t WHERE c NOT IN (1)")
        assert statement.where.negated

    def test_between(self):
        statement = parse_statement("SELECT c FROM t WHERE c BETWEEN 1 AND 5")
        where = statement.where
        assert isinstance(where, ast.SqlBetween)
        assert not where.negated

    def test_not_between(self):
        statement = parse_statement(
            "SELECT c FROM t WHERE c NOT BETWEEN 1 AND 5"
        )
        assert statement.where.negated

    def test_null_in_list_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT c FROM t WHERE c IN (1, NULL)")

    def test_between_binds_tighter_than_and(self):
        statement = parse_statement(
            "SELECT c FROM t WHERE c BETWEEN 1 AND 3 AND c > 0"
        )
        assert isinstance(statement.where, ast.SqlBinary)
        assert statement.where.op == "and"
        assert isinstance(statement.where.left, ast.SqlBetween)


class TestExecution:
    def test_in(self, db):
        result = db.sql("SELECT s FROM t WHERE c IN (1, 3, 5)")
        assert result.column("s").to_pylist() == ["a", "c", "e"]

    def test_not_in_drops_nulls(self, db):
        # SQL: NULL NOT IN (...) is NULL, so the row is dropped.
        result = db.sql("SELECT s FROM t WHERE c NOT IN (1, 3)")
        assert result.column("s").to_pylist() == ["b", "e"]

    def test_between_inclusive(self, db):
        result = db.sql("SELECT s FROM t WHERE c BETWEEN 2 AND 3")
        assert result.column("s").to_pylist() == ["b", "c"]

    def test_not_between(self, db):
        result = db.sql("SELECT s FROM t WHERE c NOT BETWEEN 2 AND 4")
        assert result.column("s").to_pylist() == ["a", "e"]

    def test_string_in(self, db):
        result = db.sql("SELECT c FROM t WHERE s IN ('a', 'd')")
        assert result.column("c").to_pylist() == [1, None]

    def test_in_inside_having(self, db):
        result = db.sql(
            "SELECT c, COUNT(*) AS n FROM t GROUP BY c "
            "HAVING COUNT(*) IN (1, 2)"
        )
        assert result.row_count == 5


class TestInMatchesTheOrRewrite:
    """``c IN (v, ...)`` answers as ``c = v OR ...`` does, and ``NOT IN``
    as ``NOT (...)`` of it, NULL rows included."""

    LISTS = [
        (1, 99999999999999999999),
        (-99999999999999999999, 5),
        (9223372036854775808, -9223372036854775809),
        (1.0, 1.5, 3),
        (2, 2, 2),
        (9007199254740993,),
        (99999999999999999999,),
    ]

    @pytest.mark.parametrize("values", LISTS)
    @pytest.mark.parametrize("column", ["c", "f"])
    def test_in_and_not_in(self, db, column, values):
        db.sql("CREATE TABLE n (c BIGINT, f DOUBLE)")
        db.sql(
            "INSERT INTO n VALUES (1, 1.0), (2, NULL), (NULL, 3.0), (5, 5.0),"
            " (9007199254740992, 9007199254740992.0),"
            " (7, 100000000000000000000.0)"
        )
        listed = ", ".join(str(value) for value in values)
        rewrite = " OR ".join(f"{column} = {value}" for value in values)
        for keyword, oracle in (("IN", f"({rewrite})"), ("NOT IN", f"NOT ({rewrite})")):
            predicate = f"{column} {keyword} ({listed})"
            for text in (
                "SELECT c, {} AS x FROM n ORDER BY c",
                "SELECT c FROM n WHERE {} ORDER BY c",
            ):
                expected = db.sql(text.format(oracle)).to_pylist()
                assert db.sql(text.format(predicate)).to_pylist() == expected, predicate


class TestInListExpression:
    def test_evaluate(self):
        schema = Schema([Field("v", DataType.INT64)])
        batch = RecordBatch(
            schema,
            {"v": ColumnVector.from_pylist(DataType.INT64, [1, 2, None])},
        )
        result = InList(ColumnRef("v"), (1, 5)).evaluate(batch)
        assert result.to_pylist() == [True, False, None]
        negated = InList(ColumnRef("v"), (1, 5), negated=True).evaluate(batch)
        assert negated.to_pylist() == [False, True, None]

    def test_str(self):
        rendered = str(InList(ColumnRef("v"), (1, "x"), negated=True))
        assert rendered == "(v NOT IN (1, 'x'))"
