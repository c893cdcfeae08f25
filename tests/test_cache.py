"""Block cache tests: LRU mechanics, observability, and staleness.

The cache must be boring in exactly one way: it can never change query
results.  The mutation fuzz here runs the same operation stream against
a durable cached database and an in-memory mirror and compares results
after every step — append, delete, update and checkpoint must all
invalidate (or bypass) cached blocks correctly.
"""

import io
import itertools
import random
import re
import shutil
import tempfile

import numpy as np
import pytest

import repro
from repro.errors import StorageError
from repro.storage.cache import (
    BlockCache,
    ENV_CACHE_BYTES,
    ScanIO,
    SegmentColumnSource,
    cache_capacity_from_env,
    vector_nbytes,
)
from repro.storage.column import ColumnVector
from repro.storage.schema import Field, Schema
from repro.storage.segment import open_segment, write_segment
from repro.types import DataType

SCHEMA = Schema([Field("k", DataType.INT64), Field("v", DataType.INT64)])


def vec(items):
    return ColumnVector.from_pylist(DataType.INT64, items)


class TestBlockCache:
    def test_hit_miss_counters(self):
        cache = BlockCache(1024)
        key = ("t", "p0.k.seg", "k", 0, 7)
        assert cache.get(key) is None
        assert cache.put(key, vec([1, 2, 3]))
        assert cache.get(key).to_pylist() == [1, 2, 3]
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_ratio"] == 0.5
        assert stats["entries"] == 1

    def test_lru_eviction_order(self):
        block = vec(list(range(8)))
        nbytes = vector_nbytes(block)
        # Four entries fit exactly (and each stays under the 1/4-capacity
        # per-entry limit); the fifth evicts the least recently used.
        cache = BlockCache(nbytes * 4)
        for index in range(4):
            cache.put(("t", "s", "k", index, 0), block)
        cache.get(("t", "s", "k", 0, 0))  # touch → most recent
        cache.put(("t", "s", "k", 4, 0), block)  # evicts block 1
        assert cache.get(("t", "s", "k", 1, 0)) is None
        assert cache.get(("t", "s", "k", 0, 0)) is not None
        assert cache.stats()["evictions"] == 1
        assert cache.bytes <= cache.capacity_bytes

    def test_oversized_entries_skipped_and_counted(self):
        cache = BlockCache(1000)  # max entry = 250 bytes
        big = vec(list(range(200)))  # 1600 bytes of values
        assert not cache.put(("t", "s", "k", 0, 0), big)
        assert cache.entry_count == 0
        assert cache.stats()["skip_count"] == 1
        small = vec([1])
        assert cache.put(("t", "s", "k", 1, 0), small)
        assert cache.entry_count == 1

    def test_clear_drops_entries_keeps_counters(self):
        cache = BlockCache(4096)
        cache.put(("t", "s", "k", 0, 0), vec([1]))
        cache.get(("t", "s", "k", 0, 0))
        cache.clear()
        assert cache.entry_count == 0
        assert cache.bytes == 0
        assert cache.stats()["hits"] == 1

    def test_generation_in_key_separates_checkpoints(self):
        cache = BlockCache(4096)
        cache.put(("t", "s", "k", 0, 1), vec([1]))
        assert cache.get(("t", "s", "k", 0, 2)) is None

    def test_string_vector_bytes_counted(self):
        column = ColumnVector.from_pylist(DataType.STRING, ["abc", "", "xy"])
        assert vector_nbytes(column) >= 8 * 3 + 5

    def test_scan_io_hit_ratio(self):
        io_stats = ScanIO(cache_hits=3, cache_misses=1)
        assert io_stats.hit_ratio == 0.75
        assert ScanIO().hit_ratio == 0.0


@pytest.fixture
def six_block_source(tmp_path):
    """A 6-block column (the last block partial) behind a roomy cache."""
    rng = np.random.default_rng(2)
    items = np.cumsum(rng.integers(-50, 50, 5 * 32 + 9)).tolist()
    items[40] = items[100] = None
    column = ColumnVector.from_pylist(DataType.INT64, items)
    path = tmp_path / "col.seg"
    write_segment(path, column, block_size=32, sync=False)
    reader = open_segment(path)
    assert reader.block_count == 6
    source = SegmentColumnSource(
        reader,
        BlockCache(1 << 20),
        table="t",
        column="c",
        segment="col.seg",
        generation=1,
    )
    yield source, column
    reader.close()


class TestSlice:
    """``slice`` assembles cached blocks and decoded runs of missed ones."""

    BOUNDS = [(0, 169), (0, 32), (5, 27), (31, 33), (17, 150), (64, 169), (96, 161)]

    def test_every_hit_miss_pattern(self, six_block_source):
        source, column = six_block_source
        for resident in itertools.product([False, True], repeat=6):
            for start, stop in self.BOUNDS:
                source.cache.clear()
                for index, present in enumerate(resident):
                    if present:
                        block = source.reader.decode_block(index)
                        source.cache.put(
                            source._key(index),
                            ColumnVector.from_pylist(block.dtype, block.to_pylist()),
                        )
                io = ScanIO()
                got = source.slice(start, stop, io)
                assert got.to_pylist() == column.slice(start, stop).to_pylist()
                touched = range(start // 32, (stop - 1) // 32 + 1)
                hits = sum(resident[index] for index in touched)
                assert io.cache_hits == hits
                assert io.cache_misses == io.blocks_decoded == len(touched) - hits

    def test_without_a_cache_the_slice_is_one_run(self, six_block_source):
        source, column = six_block_source
        source.cache = None
        io = ScanIO()
        assert source.slice(3, 165, io).to_pylist() == column.slice(3, 165).to_pylist()
        assert (io.blocks_decoded, io.cache_hits, io.cache_misses) == (6, 0, 0)

    def test_admitted_blocks_own_their_buffers(self, six_block_source):
        source, __ = six_block_source
        source.slice(0, 169)  # one run of six missed blocks, all admitted
        assert source.cache.entry_count == 6
        for vector, nbytes in source.cache._entries.values():
            assert vector.values.base is None
            assert vector.validity is None or vector.validity.base is None
            assert nbytes == vector_nbytes(vector)

    def test_sanitizer_flags_a_cached_view(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        cache = BlockCache(1 << 20)
        run = vec(list(range(64)))
        cache.put(("t", "s", "k", 0, 0), run.slice(0, 32))
        assert "view" in cache.verify_accounting()
        cache.clear()
        cache.put(("t", "s", "k", 0, 0), vec(list(range(32))))
        assert cache.verify_accounting() is None


def reopened_two_column_table(tmp_path, rows, cache_bytes):
    db = repro.connect(path=tmp_path / "db", parallelism=1, sync=False)
    table = db.create_table("t", SCHEMA)
    table.insert_rows([[i, i * 2] for i in range(rows)])
    db.sql("CHECKPOINT")
    db.close()
    return repro.connect(
        path=tmp_path / "db", parallelism=1, cache_bytes=cache_bytes
    )


class TestScanBypass:
    """A scan that cannot fit the cache is read around it, and says so."""

    ROWS = 40_000  # 10 blocks a column, 320 KB decoded a column

    def test_oversized_scan_evicts_nothing_and_still_hits(self, tmp_path):
        db = reopened_two_column_table(tmp_path, self.ROWS, 256 * 1024)
        # Two blocks of k (64 KiB, fits): admitted as ever.
        db.sql("SELECT SUM(k) AS s FROM t WHERE k < 8000")
        before = db.cache_stats()
        assert before["entries"] == 2 and before["scan_bypass"] == 0
        # Both columns in full: 640 KB planned against 256 KiB.
        result = db.sql("SELECT SUM(k) AS a, SUM(v) AS b FROM t", profile=True)
        total = sum(range(self.ROWS))
        assert result.to_pylist() == [(total, 2 * total)]
        after = db.cache_stats()
        assert after["evictions"] == 0
        assert after["entries"] == 2 and after["bytes"] == before["bytes"]
        assert after["hits"] - before["hits"] == 2  # the resident blocks
        assert after["scan_bypass"] == 18
        assert after["skip_count"] == 0
        scan = result.profile.find("TableScan")[0]
        assert scan.details["cache_bypass"] == f"{2 * 8 * self.ROWS} > {256 * 1024}"
        assert scan.details["cache_hits"] == 2
        assert scan.details["blocks_decoded"] == 18
        assert db.metrics().export()["counters"]["cache.scan_bypass"] == 18
        db.close()

    def test_scan_that_fits_is_admitted_and_hits_on_the_second_pass(
        self, tmp_path
    ):
        db = reopened_two_column_table(tmp_path, self.ROWS, 1 << 20)
        query = "SELECT SUM(k) AS a, SUM(v) AS b FROM t"
        cold = db.sql(query, profile=True).profile.find("TableScan")[0]
        assert cold.details["cache_misses"] == 20
        assert "cache_bypass" not in cold.details
        warm = db.sql(query, profile=True).profile.find("TableScan")[0]
        assert warm.details["cache_hit_ratio"] == 1.0
        assert warm.details["blocks_decoded"] == 0
        stats = db.cache_stats()
        assert stats["entries"] == 20 and stats["scan_bypass"] == 0
        assert stats["evictions"] == 0
        db.close()

    def test_repl_cache_command_shows_the_bypass(self, tmp_path):
        from repro.__main__ import run_shell

        db = reopened_two_column_table(tmp_path, self.ROWS, 65536)
        out = io.StringIO()
        run_shell(db, iter(["SELECT SUM(v) AS s FROM t;", "\\cache", "\\q"]), out)
        db.close()
        assert "scan_bypass=10" in out.getvalue()


class TestScanRuns:
    """A range scan reads each column in runs of 1, 2, 4, then 8 batches
    and emits batch-sized views of them."""

    ROWS = 100_000  # 25 blocks a column, 7 batches; 800 KB per column

    @pytest.fixture
    def db(self, tmp_path):
        db = repro.connect(path=tmp_path / "db", parallelism=1, sync=False)
        table = db.create_table("t", SCHEMA)
        keys = np.arange(self.ROWS, dtype=np.int64)
        table.load_columns(
            {
                "k": ColumnVector(DataType.INT64, keys),
                "v": ColumnVector(DataType.INT64, keys * 2),
            }
        )
        db.sql("CHECKPOINT")
        db.close()
        reopened = repro.connect(
            path=tmp_path / "db", parallelism=1, cache_bytes=256 * 1024
        )
        yield reopened
        reopened.close()

    def test_limit_decodes_one_batch_of_blocks(self, db):
        from repro.exec.batch import DEFAULT_BATCH_SIZE
        from repro.storage.blocks import DEFAULT_BLOCK_SIZE

        text = db.explain("SELECT v FROM t LIMIT 5", analyze=True)
        scan_line = next(line for line in text.splitlines() if "TableScan" in line)
        decoded = int(re.search(r"blocks_decoded=(\d+)", scan_line).group(1))
        assert 1 <= decoded <= DEFAULT_BATCH_SIZE // DEFAULT_BLOCK_SIZE
        assert db.sql("SELECT v FROM t LIMIT 5").to_pylist() == [
            (0,), (2,), (4,), (6,), (8,)
        ]

    def test_long_scan_ramps_its_runs(self, db, monkeypatch):
        from repro.storage.segment import SegmentReader

        runs = []
        decode_run = SegmentReader.decode_run

        def counting(reader, first, last):
            runs.append(last - first + 1)
            return decode_run(reader, first, last)

        monkeypatch.setattr(SegmentReader, "decode_run", counting)
        result = db.sql("SELECT SUM(v) AS s FROM t", profile=True)
        assert result.to_pylist() == [(self.ROWS * (self.ROWS - 1),)]
        # Runs of 1 and 2 batches (4 and 8 blocks), then 4 batches cut
        # at the end of the table: 25 blocks in three calls, not seven.
        assert runs == [4, 8, 13]
        scan = result.profile.find("TableScan")[0]
        assert scan.details["blocks_decoded"] == 25


class TestCapacityKnobs:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_BYTES, "12345")
        assert cache_capacity_from_env() == 12345

    def test_env_invalid_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_BYTES, "lots")
        with pytest.raises(StorageError):
            cache_capacity_from_env()

    def test_cache_bytes_zero_disables(self, tmp_path):
        db = repro.connect(path=tmp_path / "db", cache_bytes=0, parallelism=1)
        table = db.create_table("t", SCHEMA)
        table.insert_rows([[1, 2], [3, 4]])
        db.sql("CHECKPOINT")
        assert db.sql("SELECT SUM(v) AS s FROM t").rows() == [(6,)]
        assert db.cache_stats() is None
        db.close()

    def test_memory_database_has_no_cache(self):
        db = repro.connect()
        assert db.cache_stats() is None
        db.close()

    def test_cache_requires_durable_path(self):
        with pytest.raises(StorageError):
            repro.connect(cache_bytes=1024)


class TestCacheMetrics:
    def test_gauges_exported(self, tmp_path):
        db = repro.connect(path=tmp_path / "db", parallelism=1)
        table = db.create_table("t", SCHEMA)
        table.insert_rows([[i, i * 2] for i in range(100)])
        db.sql("CHECKPOINT")
        db.close()

        reopened = repro.connect(path=tmp_path / "db", parallelism=1)
        reopened.sql("SELECT SUM(v) AS s FROM t")
        reopened.sql("SELECT SUM(v) AS s FROM t")
        gauges = reopened.metrics().export()["gauges"]
        assert gauges["cache.entries"] >= 1
        assert gauges["cache.bytes"] > 0
        assert gauges["cache.hit_ratio"] > 0.0
        assert "storage.t.encoded_ratio" in gauges
        counters = reopened.metrics().export()["counters"]
        assert counters["cache.hits"] >= 1
        assert counters["cache.misses"] >= 1
        reopened.close()

    def test_profile_reports_cache_counters(self, tmp_path):
        db = repro.connect(path=tmp_path / "db", parallelism=1)
        table = db.create_table("t", SCHEMA)
        table.insert_rows([[i, i] for i in range(200)])
        db.sql("CHECKPOINT")
        db.close()

        reopened = repro.connect(path=tmp_path / "db", parallelism=1)
        cold = reopened.sql("SELECT SUM(v) AS s FROM t", profile=True)
        scan = cold.profile.find("TableScan")[0]
        assert scan.details["blocks_decoded"] >= 1
        assert scan.details["bytes_decoded"] >= scan.details["bytes_read"]
        warm = reopened.sql("SELECT SUM(v) AS s FROM t", profile=True)
        scan = warm.profile.find("TableScan")[0]
        assert scan.details["cache_hits"] >= 1
        assert scan.details["cache_hit_ratio"] == 1.0
        reopened.close()


def mirror_pair(tmp_path):
    durable = repro.connect(
        path=tmp_path / "db", parallelism=1, cache_bytes=1 << 20, sync=False
    )
    memory = repro.connect()
    for db in (durable, memory):
        table = db.create_table("t", SCHEMA, partition_count=2)
        table.insert_rows([[i % 7, i] for i in range(64)])
    return durable, memory


QUERY = "SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k ORDER BY k"


class TestNeverStale:
    def test_mutations_after_checkpoint_visible(self, tmp_path):
        durable, memory = mirror_pair(tmp_path)
        durable.sql("CHECKPOINT")
        durable.sql(QUERY)  # populate the cache
        for db in (durable, memory):
            db.table("t").insert_rows([[100, 1], [101, None]])
            db.table("t").delete_rowids([0, 5])
            db.table("t").update_rowid(10, "v", 9999)
        assert durable.sql(QUERY).rows() == memory.sql(QUERY).rows()
        durable.close()
        memory.close()

    def test_fuzzed_mutation_stream(self, tmp_path):
        durable, memory = mirror_pair(tmp_path)
        rng = random.Random(42)
        next_key = 1000
        for step in range(60):
            op = rng.choice(["insert", "delete", "update", "checkpoint"])
            if op == "insert":
                rows = [
                    [next_key + j, rng.randrange(100)]
                    for j in range(rng.randrange(1, 4))
                ]
                next_key += len(rows)
                for db in (durable, memory):
                    db.table("t").insert_rows(rows)
            elif op == "delete":
                count = durable.table("t").row_count
                if count:
                    rowid = rng.randrange(count)
                    for db in (durable, memory):
                        db.table("t").delete_rowids([rowid])
            elif op == "update":
                count = durable.table("t").row_count
                if count:
                    rowid = rng.randrange(count)
                    value = rng.randrange(10_000)
                    for db in (durable, memory):
                        db.table("t").update_rowid(rowid, "v", value)
            else:
                durable.sql("CHECKPOINT")
            assert durable.sql(QUERY).rows() == memory.sql(QUERY).rows(), (
                f"diverged at step {step} after {op}"
            )
        durable.close()
        memory.close()

    def test_reopen_after_mutations_matches(self, tmp_path):
        durable, memory = mirror_pair(tmp_path)
        durable.sql("CHECKPOINT")
        for db in (durable, memory):
            db.table("t").insert_rows([[500, 1]])
        expected = memory.sql(QUERY).rows()
        durable.close()
        memory.close()

        reopened = repro.connect(path=tmp_path / "db", parallelism=1)
        assert reopened.sql(QUERY).rows() == expected
        assert reopened.sql(QUERY).rows() == expected  # warm pass
        reopened.close()
