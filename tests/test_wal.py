"""Unit tests for the write-ahead log: appends, the checkpoint head
record, frames and their torn tails, and what a replay of the records
leaves live."""

import gc
import io
import os
import shutil
import subprocess
import struct
import sys
import tempfile
import types
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.errors import StorageError, WalError
from repro.storage.column import ColumnVector
from repro.storage.manifest import WAL_NAME, Manifest
from repro.storage.materialize import replay_log
from repro.storage.schema import Field, Schema
from repro.storage.wal import (
    PREFIX,
    WalRecord,
    WriteAheadLog,
    decode,
    frames,
    seal,
)
from repro.types import DataType
from tests.log_head import encode_frame

SCHEMA = [{"name": "c", "dtype": "int64", "nullable": True}]


def replayed(*steps):
    """What replaying *steps* — ``(kind, payload[, columns])`` tuples,
    LSNs 1, 2, … — from an empty directory leaves: tables and indexes by
    name."""
    records = [WalRecord(lsn, *step) for lsn, step in enumerate(steps, 1)]
    recovered = replay_log(records, {}, None, None)
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


def ints(*values):
    return {"c": ColumnVector.from_pylist(DataType.INT64, list(values))}


def append(table, *values):
    return ("append", {"table": table, "row_count": len(values)}, ints(*values))


def kinds(wal):
    return [record.kind for record in wal.records()]


def write_frames(path, *records):
    """A log file holding *records* — ``(lsn, kind, payload[, columns])``
    tuples — as whole frames."""
    path.write_bytes(b"".join(encode_frame(*record) for record in records))


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

    def test_a_load_is_range_split(self):
        create = ("create_table", {**create_table("t")[1], "partition_count": 2})
        load = ("load", {"table": "t", "row_count": 4}, ints(1, 2, 3, 4))
        tables, _ = replayed(create, load)
        assert [p.column("c").to_pylist() for p in tables["t"].partitions] == [
            [1, 2],
            [3, 4],
        ]

    def test_an_index_maintains_the_records_after_its_create(self):
        _, indexes = replayed(
            create_table("t"), append("t", 1, 2), create_index("i", "t"), append("t", 2)
        )
        assert indexes["i"].rowids().tolist() == [1, 2]


class TestFileBacked:
    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / WAL_NAME
        wal = WriteAheadLog(path, sync=False)
        wal.append("create_table", {"name": "t", "schema": []})
        wal.append("create_index", {"name": "i", "table": "t"})
        reloaded = WriteAheadLog(path)
        assert kinds(reloaded) == ["create_table", "create_index"]
        # New appends continue the LSN sequence.
        record = reloaded.append("drop_index", {"name": "i"})
        assert record.lsn == 3

    def test_non_monotonic_lsn_raises(self, tmp_path):
        path = tmp_path / WAL_NAME
        write_frames(
            path,
            (2, "create_table", {"name": "a"}),
            (1, "create_table", {"name": "b"}),
        )
        with pytest.raises(WalError, match="non-monotonic LSN 1 after 2"):
            WriteAheadLog(path)

    def test_payload_keys_cannot_collide_with_envelope(self, tmp_path):
        # An index's own "kind" (unique/sorted) must survive a
        # serialization roundtrip intact.
        path = tmp_path / WAL_NAME
        wal = WriteAheadLog(path, sync=False)
        wal.append(
            "create_index",
            {"name": "i", "table": "t", "column": "c", "kind": "unique"},
        )
        record = next(WriteAheadLog(path).records())
        assert record.kind == "create_index"
        assert record.payload["kind"] == "unique"

    def test_one_handle_serves_every_append(self, tmp_path, monkeypatch):
        path = tmp_path / WAL_NAME
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


class TestFrames:
    def test_a_metadata_record_is_its_header(self):
        frame = encode_frame(7, "create_index", {"name": "i", "table": "t"})
        (read,) = frames(io.BytesIO(bytes(frame)))
        assert (read.offset, read.end, read.lsn) == (0, len(frame), 7)
        assert decode(read) == WalRecord(7, "create_index", {"name": "i", "table": "t"})

    def test_a_header_that_is_not_an_object_is_refused(self):
        frame = bytearray(encode_frame(1, "drop_table", {}))
        frame[PREFIX.size + 4 :] = b"[1]"
        # Re-sealed, so only the header is wrong.
        seal(frame, 1, "drop_table", zlib.crc32(frame[PREFIX.size :]))
        (read,) = frames(io.BytesIO(bytes(frame)))
        with pytest.raises(WalError, match="malformed drop_table record 1"):
            decode(read)

    def test_unknown_kind_is_refused_on_append(self, tmp_path):
        wal = WriteAheadLog(tmp_path / WAL_NAME)
        with pytest.raises(WalError, match="unknown WAL record kind: 'vacuum'"):
            wal.append("vacuum", {})
        assert wal.last_lsn == 0


class TestDataRecords:
    def test_data_record_roundtrip(self, tmp_path):
        path = tmp_path / WAL_NAME
        wal = WriteAheadLog(path, sync=False)
        wal.append(*create_table("t"))
        wal.append(*append("t", 1, None))
        records = list(WriteAheadLog(path).records())
        assert [record.kind for record in records] == ["create_table", "append"]
        assert records[1].payload["columns"] == [["c", "int64", 1, 1]]
        assert records[1].columns["c"].to_pylist() == [1, None]

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
        path = tmp_path / WAL_NAME
        write_frames(
            path,
            (1, "create_table", {"name": "t"}),
            (2, "checkpoint", {"checkpoint_lsn": 1}),
        )
        with pytest.raises(WalError, match="not the log's head"):
            WriteAheadLog(path)


NO_ROWIDS = np.empty(0, dtype=np.int64)


def checkpoint(wal):
    """Install an empty manifest at a reserved LSN, keeping nothing."""
    lsn, since = wal.reserve()
    wal.install(Manifest(checkpoint_lsn=lsn), NO_ROWIDS, since, lambda: None)
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
        path = tmp_path / WAL_NAME
        wal = WriteAheadLog(path, sync=False)
        wal.append(*create_table("t"))
        wal.append(*append("t", 1))
        lsn, since = wal.reserve()
        wal.append(*append("t", 2))  # lands after the pin
        wal.install(Manifest(checkpoint_lsn=lsn), NO_ROWIDS, since, lambda: None)
        records = list(wal.records())
        # The head stands for everything before it; the later record
        # survives, bytes unchanged.
        assert [(r.lsn, r.kind) for r in records] == [(3, "checkpoint"), (4, "append")]
        assert records[0].payload["checkpoint_lsn"] == 3
        assert records[1].columns["c"].to_pylist() == [2]

    def test_lsns_preserved_across_compaction(self, tmp_path):
        path = tmp_path / WAL_NAME
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
        path = tmp_path / WAL_NAME
        wal = WriteAheadLog(path, sync=False)
        for position in range(5):
            wal.append(*append("t", position))
        checkpoint(wal)
        with open(path, "rb") as handle:
            (head,) = frames(handle)  # only the head record remains
        assert (head.lsn, head.kind, head.end) == (6, "checkpoint", path.stat().st_size)
        assert WriteAheadLog(path).last_lsn == 6
        assert not (tmp_path / (WAL_NAME + ".tmp")).exists()

    def test_compact_empty_log_is_noop(self, tmp_path):
        # A checkpoint of an empty log installs a head and nothing else.
        path = tmp_path / WAL_NAME
        wal = WriteAheadLog(path, sync=False)
        assert checkpoint(wal) == 1
        assert wal.append(*create_table("t")).lsn == 2
        assert [r.lsn for r in WriteAheadLog(path).records()] == [1, 2]


class TestTornTail:
    """Only the last frame can be torn; any other damage is refused."""

    def two_frames(self, path):
        write_frames(
            path, (1, "create_table", {"name": "t"}), (2, "drop_table", {"name": "t"})
        )
        return path.read_bytes(), len(encode_frame(1, "create_table", {"name": "t"}))

    @pytest.mark.parametrize("keep", [1, PREFIX.size - 1, PREFIX.size, -1])
    def test_a_short_last_frame_is_truncated(self, tmp_path, keep):
        path = tmp_path / WAL_NAME
        data, first = self.two_frames(path)
        cut = first + keep if keep > 0 else len(data) + keep
        path.write_bytes(data[:cut])
        wal = WriteAheadLog(path, sync=False)
        assert path.read_bytes() == data[:first]
        assert kinds(wal) == ["create_table"]
        assert wal.append("drop_table", {"name": "t"}).lsn == 2
        assert path.read_bytes() == data

    def test_a_bad_crc_on_the_last_frame_is_torn(self, tmp_path):
        path = tmp_path / WAL_NAME
        data, first = self.two_frames(path)
        damaged = bytearray(data)
        damaged[-2] ^= 0xFF
        path.write_bytes(damaged)
        wal = WriteAheadLog(path, sync=False)
        assert path.read_bytes() == data[:first]
        assert wal.last_lsn == 1

    def test_a_bad_crc_followed_by_a_valid_frame_raises(self, tmp_path):
        path = tmp_path / WAL_NAME
        data, first = self.two_frames(path)
        damaged = bytearray(data)
        damaged[first - 2] ^= 0xFF
        path.write_bytes(damaged)
        # Open reads the last frame only, which is whole.
        wal = WriteAheadLog(path, sync=False)
        with pytest.raises(WalError, match="record 1 at byte 0 fails its CRC"):
            list(wal.records())
        assert path.read_bytes() == damaged

    @pytest.mark.parametrize("last", [False, True])
    def test_an_unknown_kind_byte_raises(self, tmp_path, last):
        path = tmp_path / WAL_NAME
        data, first = self.two_frames(path)
        damaged = bytearray(data)
        at = first if last else 0
        # The kind byte, with the prefix's own CRC made to match it.
        damaged[at + 16] = 99
        damaged[at + 21 : at + 25] = struct.pack(
            "<I", zlib.crc32(damaged[at : at + 21])
        )
        path.write_bytes(damaged)
        with pytest.raises(WalError, match="unknown WAL record kind 99"):
            WriteAheadLog(path)
        assert path.read_bytes() == damaged

    @pytest.mark.parametrize("field", [0, 8, 16, 17, 21])
    def test_a_damaged_prefix_before_the_last_frame_raises(self, tmp_path, field):
        # A length that now points past the end of the file is damage,
        # not a torn tail: the prefix's CRC shows it, and nothing is cut.
        path = tmp_path / WAL_NAME
        data, first = self.two_frames(path)
        damaged = bytearray(data)
        damaged[field] ^= 0x40
        path.write_bytes(damaged)
        with pytest.raises(WalError, match="prefix at byte 0 fails its CRC"):
            WriteAheadLog(path)
        assert path.read_bytes() == damaged

    def test_a_zero_filled_tail_is_torn(self, tmp_path):
        # A crash can leave a file's end zero-filled: after a whole frame,
        # or through the last frames of an unsynced batch.
        path = tmp_path / WAL_NAME
        data, first = self.two_frames(path)
        for damaged, kept in (
            (data + bytes(100), data),
            (data[: first + 30] + bytes(len(data) - first - 30 + 100), data[:first]),
        ):
            path.write_bytes(damaged)
            wal = WriteAheadLog(path, sync=False)
            assert path.read_bytes() == kept
            assert wal.last_lsn == len(list(wal.records()))

    def test_a_bad_crc_followed_by_zeros_then_a_frame_raises(self, tmp_path):
        path = tmp_path / WAL_NAME
        data, first = self.two_frames(path)
        damaged = bytearray(data[:first] + bytes(40) + data[first:])
        path.write_bytes(damaged)
        with pytest.raises(WalError, match="prefix at byte .* fails its CRC"):
            WriteAheadLog(path)
        assert path.read_bytes() == damaged


class TestDamagedHead:
    """The head is installed whole by a rename, so no damage to it is a
    torn tail: the open raises and leaves the directory as it was."""

    @staticmethod
    def checkpointed(root, inserts=1):
        db = repro.connect(root)
        db.sql("CREATE TABLE t (c BIGINT)")
        db.sql("INSERT INTO t VALUES (1), (2), (3)")
        db.sql("CREATE PATCHINDEX pi ON t(c) TYPE UNIQUE")
        db.checkpoint()
        for value in range(inserts):
            db.sql(f"INSERT INTO t VALUES ({value + 10})")
        db.close()

    @staticmethod
    def files(root):
        return {entry: entry.read_bytes() for entry in root.rglob("*") if entry.is_file()}

    @pytest.mark.parametrize("inserts", [0, 1])
    @pytest.mark.parametrize("where", ["length", "body"])
    def test_a_damaged_head_is_refused_and_left_as_it_was(
        self, tmp_path, inserts, where
    ):
        root = tmp_path / "db"
        self.checkpointed(root, inserts)
        log = root / WAL_NAME
        damaged = bytearray(log.read_bytes())
        damaged[2 if where == "length" else PREFIX.size + 8] ^= 0x01
        log.write_bytes(damaged)
        before = self.files(root)
        assert any(entry.parent.name == "segments" for entry in before)
        with pytest.raises(WalError, match="fails its CRC"):
            repro.connect(root)
        assert self.files(root) == before

    def test_a_short_head_is_refused(self, tmp_path):
        root = tmp_path / "db"
        self.checkpointed(root, inserts=0)
        log = root / WAL_NAME
        log.write_bytes(log.read_bytes()[:-1])
        before = self.files(root)
        with pytest.raises(WalError, match="checkpoint record .* past the log's end"):
            repro.connect(root)
        assert self.files(root) == before


class TestMetricsHook:
    def test_append_counts_records_and_bytes(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        wal = WriteAheadLog(metrics=metrics)
        wal.append("create_table", {"name": "t"})
        wal.append(*append("t", 1))
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


# -- columns round trip bit for bit ------------------------------------------

#: Values each dtype draws: the INT64 extremes, NaN and -0.0 among the
#: floats, empty and non-ASCII strings.
VALUES = {
    DataType.INT64: st.one_of(
        st.sampled_from([0, 2**63 - 1, -(2**63 - 1), -(2**63)]),
        st.integers(-(2**63), 2**63 - 1),
        st.integers(-200, 200),
    ),
    DataType.DATE: st.integers(-719_162, 2_932_896),
    DataType.FLOAT64: st.one_of(
        st.sampled_from([float("nan"), -0.0, 0.0, float("inf")]), st.floats()
    ),
    DataType.BOOL: st.booleans(),
    DataType.STRING: st.one_of(st.sampled_from(["", "é", "日本", "a\x00b"]), st.text()),
}


@st.composite
def vectors(draw, dtype, rows):
    """A column of *rows* values; NULLs none, some or all, and the
    values under them kept whatever they are."""
    values = draw(st.lists(VALUES[dtype], min_size=rows, max_size=rows))
    if dtype == DataType.STRING:
        array = np.empty(rows, dtype=object)
        array[:] = values
    else:
        array = np.array(values, dtype=ColumnVector.empty(dtype).values.dtype)
    shape = draw(st.sampled_from(["none", "some", "all"]))
    validity = None
    if shape == "all":
        validity = np.zeros(rows, dtype=np.bool_)
    elif shape == "some":
        validity = np.array(
            draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=np.bool_
        )
    return ColumnVector(dtype, array, validity)


@st.composite
def batches(draw):
    """A schema of one to five columns and one to three batches of it."""
    dtypes = draw(st.lists(st.sampled_from(list(DataType)), min_size=1, max_size=5))
    return dtypes, [
        {
            f"c{position}": draw(vectors(dtype, rows))
            for position, dtype in enumerate(dtypes)
        }
        for rows in draw(st.lists(st.integers(0, 12), min_size=1, max_size=3))
    ]


def assert_same_bits(got: ColumnVector, want: ColumnVector) -> None:
    assert got.dtype == want.dtype
    assert (got.validity is None) == (want.validity is None)
    if want.validity is not None:
        assert got.validity.tolist() == want.validity.tolist()
    if want.dtype == DataType.STRING:
        assert [type(v) for v in got.values] == [str] * len(want)
        assert got.values.tolist() == want.values.tolist()
    else:
        assert got.values.dtype == want.values.dtype
        assert got.values.tobytes() == want.values.tobytes()


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(drawn=batches())
    def test_a_record_reads_back_bit_for_bit(self, drawn):
        _, columns_of = drawn
        log = io.BytesIO(
            b"".join(
                encode_frame(lsn, "append", {"table": "t", "row_count": len(
                    next(iter(columns.values()))
                )}, columns)
                for lsn, columns in enumerate(columns_of, 1)
            )
        )
        records = [decode(frame) for frame in frames(log)]
        assert len(records) == len(columns_of)
        for record, columns in zip(records, columns_of):
            assert list(record.columns) == list(columns)
            for name, column in columns.items():
                assert_same_bits(record.columns[name], column)

    @settings(max_examples=40, deadline=None)
    @given(drawn=batches())
    def test_a_replayed_table_equals_the_live_one_bit_for_bit(self, drawn):
        """A bulk load, then appends, into two partitions of a durable
        directory: the reopen's replay leaves every partition's columns
        as the live table held them, values under NULLs included."""
        dtypes, columns_of = drawn
        root = Path(tempfile.mkdtemp(prefix="repro-wal-")) / "db"
        try:
            db = repro.connect(root, sync=False)
            table = db.create_table(
                "t",
                Schema(Field(f"c{i}", dtype) for i, dtype in enumerate(dtypes)),
                partition_count=2,
            )
            table.load_columns(columns_of[0])
            for columns in columns_of[1:]:
                table.append_columns(columns)
            live = [
                {name: partition.column(name) for name in table.schema.names}
                for partition in table.partitions
            ]
            db.close()
            reopened = repro.connect(root, sync=False)
            replayed_partitions = reopened.table("t").partitions
            assert len(replayed_partitions) == len(live)
            for partition, columns in zip(replayed_partitions, live):
                for name, column in columns.items():
                    assert_same_bits(partition.column(name), column)
            reopened.close()
        finally:
            shutil.rmtree(root.parent, ignore_errors=True)

    @pytest.mark.parametrize(
        "value, width",
        [
            (127, 1), (128, 2), (-128, 1), (-129, 2),
            (32767, 2), (32768, 4), (-32768, 2), (-32769, 4),
            (2**31 - 1, 4), (2**31, 8), (-(2**31), 4), (-(2**31) - 1, 8),
            (2**63 - 1, 8), (-(2**63), 8),
        ],
    )
    def test_int_columns_take_the_narrowest_width(self, value, width):
        for dtype in (DataType.INT64, DataType.DATE):
            if dtype == DataType.DATE and abs(value) > 2**31:
                continue
            column = ColumnVector(dtype, np.array([0, value], dtype=np.int64))
            frame = encode_frame(1, "load", {"table": "t", "row_count": 2}, {"c": column})
            (read,) = frames(io.BytesIO(bytes(frame)))
            record = decode(read)
            assert record.payload["columns"] == [["c", dtype.value, width, 0]]
            assert_same_bits(record.columns["c"], column)


class TestWalDump:
    def test_one_line_per_frame_and_the_torn_tail(self, tmp_path):
        """``tools/wal_dump.py`` prints each frame through the log's own
        reader, sums up the head's patch sets from its rowid column,
        reports a torn tail, and leaves the directory as it was."""
        root = tmp_path / "db"
        db = repro.connect(root, sync=False)
        db.sql("CREATE TABLE t (k BIGINT, s VARCHAR)")
        db.sql("INSERT INTO t VALUES (1, 'a'), (NULL, 'b'), (2, 'c'), (2, 'd')")
        db.sql("CREATE PATCHINDEX pk ON t(k) TYPE UNIQUE")
        db.checkpoint()
        db.sql("INSERT INTO t VALUES (70000, 'c')")
        db.sql("DELETE FROM t WHERE k = 1")
        db.close()
        with open(root / WAL_NAME, "ab") as handle:
            handle.write(b"\x07\x00")
        before = (root / WAL_NAME).read_bytes()
        tools = Path(__file__).resolve().parent.parent / "tools"
        completed = subprocess.run(
            [sys.executable, str(tools / "wal_dump.py"), str(root)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        lines = completed.stdout.splitlines()
        assert [line.split()[:2] for line in lines[:3]] == [
            ["4", "checkpoint"],
            ["5", "append"],
            ["6", "delete"],
        ]
        assert '"format_version":7' in lines[0]
        design = db.catalog.index("pk").design
        assert (
            f'"patches":{{"pk":{{"design":"{design}","partitions":1,"patches":3}}}}'
            in lines[0]
        )
        assert lines[0].endswith(" | rowids: int64 width=1 rows=3")
        assert "k: int64 width=4 rows=1 | s: string width=0 rows=1" in lines[1]
        assert "rowids: int64 width=1 rows=1" in lines[2]
        assert lines[3:] == [f"torn tail: 2 bytes from byte {len(before) - 2}"]
        assert (root / WAL_NAME).read_bytes() == before
