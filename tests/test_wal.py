"""Unit tests for the write-ahead log: appends, the checkpoint head
record, torn tails, and what a replay of the records leaves live."""

import gc
import json
import sys
import types

import pytest

import repro
from repro.errors import StorageError, WalError
from repro.storage.manifest import Manifest
from repro.storage.materialize import replay_log
from repro.storage.wal import WalRecord, WriteAheadLog

SCHEMA = [{"name": "c", "dtype": "int64", "nullable": True}]


def replayed(*steps):
    """What replaying *steps* — ``(kind, payload)`` pairs, LSNs 1, 2, …
    — from an empty directory leaves: tables and indexes by name."""
    records = [
        WalRecord(lsn, kind, payload) for lsn, (kind, payload) in enumerate(steps, 1)
    ]
    recovered = replay_log(records, {}, None)
    return recovered.tables, {index.name: index for index in recovered.indexes}


def create_table(name):
    return ("create_table", {"name": name, "schema": SCHEMA})


def drop_table(name):
    return ("drop_table", {"name": name})


def create_index(name, table):
    return (
        "create_index",
        {"name": name, "table": table, "column": "c", "kind": "unique"},
    )


def append(table, *values):
    return (
        "append",
        {"table": table, "columns": {"c": list(values)}, "row_count": len(values)},
    )


def kinds(wal):
    return [record.kind for record in wal.records()]


class TestInMemory:
    def test_append_and_read(self):
        wal = WriteAheadLog()
        first = wal.append("create_table", {"name": "t"})
        second = wal.append("create_index", {"name": "i", "table": "t"})
        assert (first.lsn, second.lsn) == (1, 2)
        assert wal.last_lsn == 2
        # The in-memory engine's log assigns LSNs and keeps nothing.
        assert list(wal.records()) == []

    def test_unknown_kind_rejected(self):
        wal = WriteAheadLog()
        with pytest.raises(WalError):
            wal.append("compact", {})

    def test_checkpoint(self):
        db = repro.connect()
        db.sql("CREATE TABLE t (c BIGINT)")
        summary = db.checkpoint()
        assert (summary["lsn"], summary["wal_pruned"]) == (1, 0)
        assert db.wal.last_lsn == 1


class TestLiveRecords:
    """What a replay of the log in order leaves live."""

    def test_drop_cancels_create(self):
        assert replayed(create_table("t"), drop_table("t")) == ({}, {})

    def test_recreate_after_drop_survives(self):
        tables, _ = replayed(
            create_table("t"), append("t", 1), drop_table("t"), create_table("t")
        )
        assert list(tables) == ["t"]
        assert tables["t"].row_count == 0

    def test_drop_table_cancels_its_indexes(self):
        steps = (create_table("t"), create_index("i", "t"), drop_table("t"))
        assert replayed(*steps) == ({}, {})

    def test_drop_index_only(self):
        tables, indexes = replayed(
            create_table("t"),
            create_index("i", "t"),
            ("drop_index", {"name": "i"}),
            append("t", 1, 1),
        )
        assert list(tables) == ["t"] and indexes == {}
        assert tables["t"].row_count == 2

    def test_alternating_create_drop(self):
        steps = [create_table("t"), drop_table("t")] * 2 + [create_table("t")]
        tables, _ = replayed(*steps)
        assert list(tables) == ["t"]

    def test_a_load_is_range_split_and_round_robin_is_refused(self):
        # A log written before loads lost their round-robin layout may
        # carry the field; false is the range split it always meant.
        create = ("create_table", {**create_table("t")[1], "partition_count": 2})

        def load(**flag):
            return ("load", {"table": "t", "columns": {"c": [1, 2, 3, 4]}, **flag})

        for step in (load(), load(round_robin=False)):
            tables, _ = replayed(create, step)
            assert [p.column("c").to_pylist() for p in tables["t"].partitions] == [
                [1, 2],
                [3, 4],
            ]
        with pytest.raises(WalError, match="'round_robin'"):
            replayed(create, load(round_robin=True))

    def test_an_index_maintains_the_records_after_its_create(self):
        _, indexes = replayed(
            create_table("t"), append("t", 1, 2), create_index("i", "t"), append("t", 2)
        )
        assert indexes["i"].rowids().tolist() == [1, 2]


class TestFileBacked:
    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync=False)
        wal.append("create_table", {"name": "t", "schema": []})
        wal.append("create_index", {"name": "i", "table": "t"})
        reloaded = WriteAheadLog(path)
        assert kinds(reloaded) == ["create_table", "create_index"]
        # New appends continue the LSN sequence.
        record = reloaded.append("drop_index", {"name": "i"})
        assert record.lsn == 3

    def test_corrupt_line_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text(
            '{"lsn": 1, "kind": "create_table", "payload": {"name": "t"}}\n'
            "not json\n"
        )
        with pytest.raises(WalError):
            WriteAheadLog(path)

    def test_non_monotonic_lsn_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text(
            '{"lsn": 2, "kind": "create_table", "payload": {"name": "a"}}\n'
            '{"lsn": 1, "kind": "create_table", "payload": {"name": "b"}}\n'
        )
        with pytest.raises(WalError):
            list(WriteAheadLog(path).records())

    def test_payload_keys_cannot_collide_with_envelope(self, tmp_path):
        # An index's own "kind" (unique/sorted) must survive a
        # serialization roundtrip intact.
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync=False)
        wal.append(
            "create_index",
            {"name": "i", "table": "t", "column": "c", "kind": "unique"},
        )
        record = next(WriteAheadLog(path).records())
        assert record.kind == "create_index"
        assert record.payload["kind"] == "unique"

    def test_one_handle_serves_every_append(self, tmp_path, monkeypatch):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync=False)
        opened = []
        real_open = open
        monkeypatch.setattr(
            "builtins.open", lambda *a, **k: opened.append(a) or real_open(*a, **k)
        )
        for position in range(3):
            wal.append("create_table", {"name": f"t{position}"})
        monkeypatch.undo()
        assert opened == []
        assert wal.last_lsn == 3
        wal.close()
        with pytest.raises(StorageError, match="closed"):
            wal.append("drop_table", {"name": "t0"})


class TestWalRecord:
    def test_json_roundtrip(self):
        record = WalRecord(7, "create_index", {"name": "i", "table": "t"})
        parsed = WalRecord.from_json(record.to_json())
        assert parsed == record

    def test_malformed_json(self):
        with pytest.raises(WalError):
            WalRecord.from_json("[1, 2]")

    def test_malformed_payload(self):
        with pytest.raises(WalError):
            WalRecord.from_json('{"lsn": 1, "kind": "checkpoint", "payload": 3}')

    def test_unknown_kind(self):
        with pytest.raises(WalError):
            WalRecord.from_json('{"lsn": 1, "kind": "vacuum"}')


class TestFromJsonHardening:
    def test_non_int_lsn_rejected(self):
        with pytest.raises(WalError):
            WalRecord.from_json('{"lsn": "1", "kind": "checkpoint"}')

    def test_float_lsn_rejected(self):
        with pytest.raises(WalError):
            WalRecord.from_json('{"lsn": 1.5, "kind": "checkpoint"}')

    def test_bool_lsn_rejected(self):
        # bool is an int subclass in Python; it must still be rejected.
        with pytest.raises(WalError):
            WalRecord.from_json('{"lsn": true, "kind": "checkpoint"}')

    def test_null_lsn_rejected(self):
        with pytest.raises(WalError):
            WalRecord.from_json('{"lsn": null, "kind": "checkpoint"}')

    def test_list_payload_rejected(self):
        with pytest.raises(WalError):
            WalRecord.from_json(
                '{"lsn": 1, "kind": "checkpoint", "payload": [1]}'
            )

    def test_string_payload_rejected(self):
        with pytest.raises(WalError):
            WalRecord.from_json(
                '{"lsn": 1, "kind": "checkpoint", "payload": "x"}'
            )

    def test_non_string_kind_rejected(self):
        with pytest.raises(WalError):
            WalRecord.from_json('{"lsn": 1, "kind": 3}')

    def test_missing_payload_defaults_empty(self):
        record = WalRecord.from_json('{"lsn": 1, "kind": "checkpoint"}')
        assert record.payload == {}


class TestDataRecords:
    def test_data_record_roundtrip(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync=False)
        wal.append(*create_table("t"))
        wal.append(*append("t", 1, None))
        records = list(WriteAheadLog(path).records())
        assert [record.kind for record in records] == ["create_table", "append"]
        assert records[1].payload["columns"] == {"c": [1, None]}

    def test_drop_table_elides_its_data(self):
        steps = (create_table("t"), append("t", 1), drop_table("t"))
        assert replayed(*steps) == ({}, {})

    def test_other_tables_data_survives_a_drop(self):
        tables, _ = replayed(
            create_table("t"), create_table("u"), append("u", 1), drop_table("t")
        )
        assert list(tables) == ["u"]
        assert tables["u"].read_column("c").to_pylist() == [1]

    def test_checkpoint_markers_not_replayed(self, tmp_path):
        # A checkpoint record is the log's head or nothing: one anywhere
        # else is refused, not replayed.
        path = tmp_path / "wal.jsonl"
        path.write_text(
            '{"lsn": 1, "kind": "create_table", "payload": {"name": "t"}}\n'
            '{"lsn": 2, "kind": "checkpoint", "payload": {"checkpoint_lsn": 1}}\n'
        )
        with pytest.raises(WalError, match="not the log's head"):
            list(WriteAheadLog(path).records())


def checkpoint(wal):
    """Install an empty manifest at a reserved LSN, keeping nothing."""
    lsn, since = wal.reserve()
    wal.install(Manifest(checkpoint_lsn=lsn), since, renamed=lambda: None)
    return lsn


class TestCompact:
    """A checkpoint's install rewrites the log as its head record plus
    the records after the pin."""

    def test_replay_unchanged_without_checkpoint(self, tmp_path):
        root = tmp_path / "db"
        db = repro.connect(root, sync=False)
        db.sql("CREATE TABLE t (c BIGINT)")
        db.sql("DROP TABLE t")
        db.sql("CREATE TABLE t (c BIGINT)")
        db.sql("INSERT INTO t VALUES (1)")
        db.close()
        # Without a checkpoint every record stays, cancelled pairs too.
        assert kinds(db.wal) == ["create_table", "drop_table", "create_table", "append"]
        reopened = repro.connect(root, sync=False)
        assert reopened.sql("SELECT c FROM t").to_pylist() == [(1,)]
        reopened.close()

    def test_checkpoint_prunes_covered_data_records(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync=False)
        wal.append(*create_table("t"))
        wal.append(*append("t", 1))
        lsn, since = wal.reserve()
        wal.append(*append("t", 2))  # lands after the pin
        wal.install(Manifest(checkpoint_lsn=lsn), since, renamed=lambda: None)
        records = list(wal.records())
        # The head stands for everything before it; the later record
        # survives, bytes unchanged.
        assert [(r.lsn, r.kind) for r in records] == [(3, "checkpoint"), (4, "append")]
        assert records[0].payload["checkpoint_lsn"] == 3
        assert records[1].payload["columns"] == {"c": [2]}

    def test_lsns_preserved_across_compaction(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync=False)
        wal.append(*create_table("t"))
        wal.append(*append("t", 1))
        assert checkpoint(wal) == 3
        record = wal.append(*create_table("u"))
        assert record.lsn == 4
        reloaded = WriteAheadLog(path)
        assert [r.lsn for r in reloaded.records()] == [3, 4]
        assert reloaded.append(*drop_table("u")).lsn == 5

    def test_compact_rewrites_file(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync=False)
        for position in range(5):
            wal.append(*append("t", position))
        checkpoint(wal)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1  # only the head record remains
        head = json.loads(lines[0])
        assert (head["lsn"], head["kind"]) == (6, "checkpoint")
        assert WriteAheadLog(path).last_lsn == 6
        assert not (tmp_path / "wal.jsonl.tmp").exists()

    def test_compact_empty_log_is_noop(self, tmp_path):
        # A checkpoint of an empty log installs a head and nothing else.
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync=False)
        assert checkpoint(wal) == 1
        assert wal.append(*create_table("t")).lsn == 2
        assert [r.lsn for r in WriteAheadLog(path).records()] == [1, 2]


class TestTornTail:
    def test_torn_tail_tolerated_when_enabled(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync=False)
        wal.append("create_table", {"name": "t"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"lsn": 2, "kind": "crea')  # torn mid-append
        recovered = WriteAheadLog(path)
        assert kinds(recovered) == ["create_table"]
        # The file was truncated back to the last complete record.
        assert path.read_text().count("\n") == 1
        assert recovered.append("drop_table", {"name": "t"}).lsn == 2

    def test_mid_file_corruption_raises_even_when_tolerant(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text(
            '{"lsn": 1, "kind": "create_table", "payload": {"name": "t"}}\n'
            "garbage\n"
            '{"lsn": 3, "kind": "drop_table", "payload": {"name": "t"}}\n'
        )
        with pytest.raises(WalError):
            list(WriteAheadLog(path).records())

    def test_a_whole_last_record_of_an_unknown_kind_is_not_torn(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        text = '{"lsn": 1, "kind": "vacuum", "payload": {}}\n'
        path.write_text(text)
        with pytest.raises(WalError, match="unknown WAL record kind"):
            WriteAheadLog(path)
        assert path.read_text() == text

    def test_a_last_record_without_its_newline_is_torn(self, tmp_path):
        # An append writes its line and newline at once: a record whose
        # newline is missing was never acknowledged.
        path = tmp_path / "wal.jsonl"
        first = '{"lsn": 1, "kind": "create_table", "payload": {"name": "t"}}\n'
        path.write_text(first + first.replace('"lsn": 1', '"lsn": 2').rstrip())
        wal = WriteAheadLog(path, sync=False)
        assert path.read_text() == first
        assert wal.append("drop_table", {"name": "t"}).lsn == 2


class TestMetricsHook:
    def test_append_counts_records_and_bytes(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        wal = WriteAheadLog(metrics=metrics)
        wal.append("create_table", {"name": "t"})
        wal.append("append", {"table": "t", "columns": {"c": [1]}})
        assert metrics.counter("wal.records").value == 2
        assert metrics.counter("wal.data_records").value == 1
        assert metrics.counter("wal.bytes").value > 0


def retained_bytes(wal) -> int:
    """Bytes of every object the log reaches, but its metrics registry."""
    seen: set[int] = set()
    stack = [value for name, value in vars(wal).items() if name != "_metrics"]
    total = 0
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(
            item, (type, types.ModuleType, types.FunctionType)
        ):
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)
        stack.extend(gc.get_referents(item))
    return total


class TestMemory:
    def test_the_log_keeps_no_rows_in_memory(self, tmp_path):
        """200 INSERTs of 1 000 rows x 3 INT64 into a durable directory,
        no checkpoint: the rows are on disk only, not in the log's memory
        too."""
        db = repro.connect(tmp_path / "db", sync=False)
        db.sql("CREATE TABLE t (a BIGINT, b BIGINT, c BIGINT)")
        values = ", ".join(f"({k}, {k * 2}, {k * 3})" for k in range(1_000))
        for _ in range(200):
            db.sql(f"INSERT INTO t VALUES {values}")
        assert db.table("t").row_count == 200_000
        assert retained_bytes(db.wal) < 1 << 20
        db.close()
