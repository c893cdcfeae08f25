"""Unit tests for the Database facade: DDL, WAL logging, recovery."""

import pytest

from repro import Database, DataType, Field, Schema
from repro.errors import StorageError, ThresholdExceededError, WalError
from repro.storage.column import ColumnVector
from repro.storage.database import payload_to_schema, schema_to_payload
from repro.storage.manifest import WAL_NAME
from tests.log_head import encode_frame


def two_cols() -> Schema:
    return Schema([Field("c", DataType.INT64), Field("s", DataType.STRING)])


class TestSchemaPayload:
    def test_roundtrip(self):
        schema = Schema(
            [
                Field("a", DataType.INT64, nullable=False),
                Field("b", DataType.DATE),
            ]
        )
        assert payload_to_schema(schema_to_payload(schema)) == schema

    def test_malformed(self):
        with pytest.raises(WalError):
            payload_to_schema([{"name": "x", "dtype": "decimal"}])


class TestDdl:
    def test_create_table_logs_wal(self, tmp_path):
        db = Database(path=tmp_path / "db")
        db.create_table("t", two_cols(), partition_count=2)
        records = list(db.wal.records())
        assert records[-1].kind == "create_table"
        assert records[-1].payload["partition_count"] == 2

    def test_create_from_pydict(self):
        db = Database()
        table = db.create_table_from_pydict(
            "t", two_cols(), {"c": [1, 2], "s": ["a", "b"]}
        )
        assert table.row_count == 2
        assert db.table("t") is table

    def test_drop_table_logs(self, tmp_path):
        db = Database(path=tmp_path / "db")
        db.create_table("t", two_cols())
        db.drop_table("t")
        assert list(db.wal.records())[-1].kind == "drop_table"

    def test_create_patch_index(self, tmp_path):
        db = Database(path=tmp_path / "db")
        db.create_table_from_pydict(
            "t", two_cols(), {"c": [1, 2, 2], "s": ["a", "b", "c"]}
        )
        index = db.create_patch_index("pi", "t", "c", "unique")
        assert db.catalog.index("pi") is index
        record = list(db.wal.records())[-1]
        assert record.kind == "create_index"
        # The WAL stays slim: no patch payload is logged.
        assert "patches" not in record.payload
        assert "rowids" not in record.payload

    def test_threshold_propagates(self):
        db = Database()
        db.create_table_from_pydict(
            "t", two_cols(), {"c": [1, 1], "s": ["a", "b"]}
        )
        with pytest.raises(ThresholdExceededError):
            db.create_patch_index("pi", "t", "c", "unique", threshold=0.1)

    def test_drop_patch_index(self):
        db = Database()
        db.create_table_from_pydict(
            "t", two_cols(), {"c": [1], "s": ["a"]}
        )
        db.create_patch_index("pi", "t", "c", "unique")
        db.drop_patch_index("pi")
        assert not db.catalog.has_index("pi")

    def test_describe(self):
        db = Database()
        db.create_table_from_pydict("t", two_cols(), {"c": [1], "s": ["a"]})
        db.create_patch_index("pi", "t", "c", "unique")
        text = db.describe()
        assert "table t" in text
        assert "patchindex pi" in text


def reopened(path) -> tuple[Database, dict]:
    """A database closed before its first checkpoint, opened again."""
    recovered = Database(path=path)
    gauges = recovered.metrics().export()["gauges"]
    assert not any(record.kind == "checkpoint" for record in recovered.wal.records())
    return recovered, gauges


class TestRecovery:
    """The paper's §V recovery: the log carries each index's definition,
    never its patches, and a reopen discovers the index from the data
    replayed before its ``create_index``."""

    def test_recovery_rebuilds_indexes_from_data(self, tmp_path):
        path = tmp_path / "data"
        db = Database(path=path)
        db.create_table("t", two_cols(), partition_count=2)
        db.table("t").load_columns(
            {
                "c": ColumnVector.from_pylist(DataType.INT64, [1, 2, 2, None]),
                "s": ColumnVector.from_pylist(DataType.STRING, list("wxyz")),
            }
        )
        db.create_patch_index("pi", "t", "c", "unique", mode="bitmap")
        original = db.catalog.index("pi").rowids().tolist()
        db.close()

        recovered, gauges = reopened(path)
        index = recovered.catalog.index("pi")
        assert index.rowids().tolist() == original
        assert index.design == "bitmap"
        assert recovered.table("t").row_count == 4
        assert gauges["recovery.indexes_rebuilt"] == 1
        assert gauges["recovery.indexes_restored"] == 0

    def test_recovery_skips_dropped_objects(self, tmp_path):
        path = tmp_path / "data"
        db = Database(path=path)
        db.create_table("gone", two_cols())
        db.drop_table("gone")
        db.create_table("kept", two_cols())
        db.close()
        recovered, _ = reopened(path)
        assert recovered.catalog.table_names() == ["kept"]

    def test_recovery_index_missing_table(self, tmp_path):
        path = tmp_path / "data"
        path.mkdir()
        (path / WAL_NAME).write_bytes(
            encode_frame(
                1,
                "create_index",
                {
                    "name": "i",
                    "table": "t",
                    "column": "c",
                    "kind": "unique",
                    "mode": "auto",
                    "threshold": 1.0,
                },
            )
        )
        # No create_table precedes the record, so recovery must fail
        # loudly rather than silently skip.
        with pytest.raises(WalError, match="names unknown 't'"):
            Database(path=path)

    def test_a_file_is_not_a_data_directory(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text("")
        with pytest.raises(StorageError, match="not a directory"):
            Database(path=path)
        assert path.read_text() == ""
