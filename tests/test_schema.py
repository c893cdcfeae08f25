"""Unit tests for Schema/Field."""

import pytest

from repro.errors import SchemaError
from repro.storage.schema import Field, Schema
from repro.types import DataType


class TestField:
    def test_str(self):
        assert str(Field("x", DataType.INT64, nullable=False)) == "x INT64 NOT NULL"
        assert str(Field("y", DataType.STRING)) == "y STRING"

    def test_empty_name_raises(self):
        with pytest.raises(SchemaError):
            Field("", DataType.INT64)

    def test_bad_dtype_raises(self):
        with pytest.raises(SchemaError):
            Field("x", "int64")  # type: ignore[arg-type]


class TestSchema:
    def test_lookup(self):
        schema = Schema([Field("a", DataType.INT64), Field("b", DataType.STRING)])
        assert schema.field("b").dtype == DataType.STRING
        assert schema.index_of("a") == 0
        assert "a" in schema
        assert "z" not in schema
        assert schema.names == ("a", "b")
        assert len(schema) == 2

    def test_duplicate_names_raise(self):
        with pytest.raises(SchemaError):
            Schema([Field("a", DataType.INT64), Field("a", DataType.INT64)])

    def test_unknown_column_raises(self):
        schema = Schema([Field("a", DataType.INT64)])
        with pytest.raises(SchemaError):
            schema.field("nope")
        with pytest.raises(SchemaError):
            schema.index_of("nope")

    def test_select(self):
        schema = Schema(
            [
                Field("a", DataType.INT64),
                Field("b", DataType.STRING),
                Field("c", DataType.BOOL),
            ]
        )
        projected = schema.select(["c", "a"])
        assert projected.names == ("c", "a")

    def test_equality_and_hash(self):
        first = Schema([Field("a", DataType.INT64)])
        second = Schema([Field("a", DataType.INT64)])
        assert first == second
        assert hash(first) == hash(second)
        assert first != Schema([Field("a", DataType.STRING)])

    def test_iteration(self):
        schema = Schema([Field("a", DataType.INT64), Field("b", DataType.BOOL)])
        assert [field.name for field in schema] == ["a", "b"]
