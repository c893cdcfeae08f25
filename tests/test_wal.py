"""Unit tests for the write-ahead log."""

import pytest

from repro.errors import WalError
from repro.storage.wal import WalRecord, WriteAheadLog


class TestInMemory:
    def test_append_and_read(self):
        wal = WriteAheadLog()
        wal.append("create_table", {"name": "t"})
        wal.append("create_index", {"name": "i", "table": "t"})
        records = wal.records()
        assert [record.kind for record in records] == [
            "create_table",
            "create_index",
        ]
        assert records[0].lsn == 1
        assert records[1].lsn == 2

    def test_unknown_kind_rejected(self):
        wal = WriteAheadLog()
        with pytest.raises(WalError):
            wal.append("compact", {})

    def test_checkpoint(self):
        wal = WriteAheadLog()
        record = wal.checkpoint()
        assert record.kind == "checkpoint"


class TestLiveRecords:
    def test_drop_cancels_create(self):
        wal = WriteAheadLog()
        wal.append("create_table", {"name": "t"})
        wal.append("drop_table", {"name": "t"})
        assert wal.live_records() == []

    def test_recreate_after_drop_survives(self):
        wal = WriteAheadLog()
        wal.append("create_table", {"name": "t"})
        wal.append("drop_table", {"name": "t"})
        wal.append("create_table", {"name": "t"})
        live = wal.live_records()
        assert len(live) == 1
        assert live[0].lsn == 3

    def test_drop_table_cancels_its_indexes(self):
        wal = WriteAheadLog()
        wal.append("create_table", {"name": "t"})
        wal.append("create_index", {"name": "i", "table": "t"})
        wal.append("drop_table", {"name": "t"})
        assert wal.live_records() == []

    def test_drop_index_only(self):
        wal = WriteAheadLog()
        wal.append("create_table", {"name": "t"})
        wal.append("create_index", {"name": "i", "table": "t"})
        wal.append("drop_index", {"name": "i"})
        live = wal.live_records()
        assert [record.kind for record in live] == ["create_table"]

    def test_alternating_create_drop(self):
        wal = WriteAheadLog()
        for __ in range(2):
            wal.append("create_table", {"name": "t"})
            wal.append("drop_table", {"name": "t"})
        wal.append("create_table", {"name": "t"})
        assert len(wal.live_records()) == 1


class TestFileBacked:
    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync=False)
        wal.append("create_table", {"name": "t", "schema": []})
        wal.append("create_index", {"name": "i", "table": "t"})
        reloaded = WriteAheadLog(path)
        assert [record.kind for record in reloaded.records()] == [
            "create_table",
            "create_index",
        ]
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
            WriteAheadLog(path)

    def test_payload_keys_cannot_collide_with_envelope(self, tmp_path):
        # An index's own "kind" (unique/sorted) must survive a
        # serialization roundtrip intact.
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync=False)
        wal.append(
            "create_index",
            {"name": "i", "table": "t", "column": "c", "kind": "unique"},
        )
        reloaded = WriteAheadLog(path)
        record = reloaded.records()[0]
        assert record.kind == "create_index"
        assert record.payload["kind"] == "unique"


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
    def test_data_record_roundtrip(self):
        wal = WriteAheadLog()
        wal.append("create_table", {"name": "t"})
        wal.append("append", {"table": "t", "columns": {"c": [1, 2]}})
        assert [record.kind for record in wal.live_records()] == [
            "create_table",
            "append",
        ]

    def test_drop_table_elides_its_data(self):
        wal = WriteAheadLog()
        wal.append("create_table", {"name": "t"})
        wal.append("append", {"table": "t", "columns": {"c": [1]}})
        wal.append("drop_table", {"name": "t"})
        assert wal.live_records() == []

    def test_other_tables_data_survives_a_drop(self):
        wal = WriteAheadLog()
        wal.append("create_table", {"name": "t"})
        wal.append("create_table", {"name": "u"})
        wal.append("append", {"table": "u", "columns": {"c": [1]}})
        wal.append("drop_table", {"name": "t"})
        live = wal.live_records()
        assert [record.kind for record in live] == ["create_table", "append"]
        assert live[1].payload["table"] == "u"

    def test_checkpoint_markers_not_replayed(self):
        wal = WriteAheadLog()
        wal.append("create_table", {"name": "t"})
        wal.checkpoint()
        assert [record.kind for record in wal.live_records()] == [
            "create_table"
        ]
        assert wal.last_checkpoint_lsn() == 2


class TestCompact:
    def test_replay_unchanged_without_checkpoint(self):
        wal = WriteAheadLog()
        wal.append("create_table", {"name": "t"})
        wal.append("drop_table", {"name": "t"})
        wal.append("create_table", {"name": "t"})
        wal.append("append", {"table": "t", "columns": {"c": [1]}})
        before = wal.live_records()
        pruned = wal.compact()
        assert pruned == 2  # the cancelled create/drop pair
        assert wal.live_records() == before

    def test_checkpoint_prunes_covered_data_records(self):
        wal = WriteAheadLog()
        wal.append("create_table", {"name": "t"})
        wal.append("append", {"table": "t", "columns": {"c": [1]}})
        wal.checkpoint()
        wal.append("append", {"table": "t", "columns": {"c": [2]}})
        before = [
            record for record in wal.live_records() if record.kind != "append"
        ]
        tail = [record for record in wal.live_records() if record.lsn > 3]
        wal.compact()
        live = wal.live_records()
        # Metadata and the post-checkpoint tail survive; the covered
        # data record is gone.
        assert [record.kind for record in live] == ["create_table", "append"]
        assert live[1].lsn == 4
        assert before[0] in live
        assert tail == [live[1]]
        # The marker itself survives so the checkpoint LSN is known.
        assert wal.last_checkpoint_lsn() == 3

    def test_lsns_preserved_across_compaction(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync=False)
        wal.append("create_table", {"name": "t"})
        wal.append("append", {"table": "t", "columns": {"c": [1]}})
        wal.checkpoint()
        wal.compact()
        record = wal.append("create_table", {"name": "u"})
        assert record.lsn == 4
        reloaded = WriteAheadLog(path)
        assert [r.lsn for r in reloaded.records()] == [1, 3, 4]

    def test_compact_rewrites_file(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync=False)
        for position in range(5):
            wal.append("append", {"table": "t", "columns": {"c": [position]}})
        wal.checkpoint()
        wal.compact()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1  # only the checkpoint marker remains
        reloaded = WriteAheadLog(path)
        assert reloaded.last_checkpoint_lsn() == 6

    def test_compact_empty_log_is_noop(self):
        wal = WriteAheadLog()
        assert wal.compact() == 0


class TestTornTail:
    def test_torn_tail_tolerated_when_enabled(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync=False)
        wal.append("create_table", {"name": "t"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"lsn": 2, "kind": "crea')  # torn mid-append
        recovered = WriteAheadLog(path, tolerate_torn_tail=True)
        assert len(recovered) == 1
        # The file was truncated back to the last complete record.
        assert path.read_text().count("\n") == 1
        assert recovered.append("drop_table", {"name": "t"}).lsn == 2

    def test_torn_tail_raises_by_default(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, sync=False)
        wal.append("create_table", {"name": "t"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"lsn": 2, "kind": "crea')
        with pytest.raises(WalError):
            WriteAheadLog(path)

    def test_mid_file_corruption_raises_even_when_tolerant(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text(
            '{"lsn": 1, "kind": "create_table", "payload": {"name": "t"}}\n'
            "garbage\n"
            '{"lsn": 3, "kind": "drop_table", "payload": {"name": "t"}}\n'
        )
        with pytest.raises(WalError):
            WriteAheadLog(path, tolerate_torn_tail=True)


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
