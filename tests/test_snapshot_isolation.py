"""Snapshot isolation under concurrent writers, readers, and checkpoints.

One writer thread appends fixed-size batches (each batch is a single INSERT,
hence a single WAL record) and periodically checkpoints.  Reader threads run
snapshot-pinned scans the whole time and assert that every statement observes
a state that lies exactly on a statement boundary: every batch group is either
fully visible (BATCH_ROWS rows) or not visible at all — never torn.

A pin that finds an unpinned handle at a lower LSN *advances* it: the WAL
span's data records are replayed onto its tables and the span's
``patch_delta`` records onto its restored PatchIndexes.  It must refuse —
before touching anything — a span it cannot replay faithfully, say why
(``storage.snapshot.advance_refused.<reason>`` plus one WARNING per reason
per process), and leave the cached handle exactly as it was.  The stall
guard at the end counts ``ColumnVector.__getitem__`` calls instead of
timing anything: neither the writer's first ``INSERT`` after a ``DELETE``
or a reopen, nor the reader's first snapshot after it, may read the
indexed column cell by cell.
"""

import threading

import pytest

import repro
from repro.core.patch_index import PatchIndex
from repro.storage import snapshot as snapshot_module
from repro.storage.column import ColumnVector
from repro.storage.schema import Field, Schema
from repro.types import DataType

BATCH_ROWS = 20
BATCHES = 24
CHECKPOINT_EVERY = 7
READERS = 4


@pytest.fixture
def durable(tmp_path):
    db = repro.connect(tmp_path / "data", parallelism=1)
    db.sql("CREATE TABLE t (batch BIGINT, x BIGINT)")
    return db


@pytest.fixture
def indexed(durable):
    """*durable* with a NUC on ``batch`` and an NSC on ``x``, checkpointed."""
    durable.sql("CREATE TABLE d (k BIGINT)")
    durable.sql("INSERT INTO t VALUES (1, 10), (2, 20), (2, 15), (4, 40)")
    durable.sql("CREATE PATCHINDEX pu ON t(batch) TYPE UNIQUE")
    durable.sql("CREATE PATCHINDEX ps ON t(x) TYPE SORTED")
    durable.checkpoint()
    return durable


def _counters(db) -> dict:
    return db.obs.export()["counters"]


def _refusals(db) -> dict:
    prefix = "storage.snapshot.advance_refused."
    return {
        name[len(prefix):]: value
        for name, value in _counters(db).items()
        if name.startswith(prefix)
    }


def _patch_rowids(catalog) -> dict:
    return {index.name: index.rowids().tolist() for index in catalog.indexes()}


def _insert_batch(db, batch: int) -> None:
    values = ", ".join(f"({batch}, {i})" for i in range(BATCH_ROWS))
    db.sql(f"INSERT INTO t VALUES {values}")


class TestSnapshotIsolationFuzz:
    def test_concurrent_readers_never_see_torn_batches(self, durable):
        done = threading.Event()
        failures: list[BaseException] = []
        reads = [0] * READERS

        def writer() -> None:
            try:
                for batch in range(BATCHES):
                    _insert_batch(durable, batch)
                    if batch % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
                        durable.checkpoint()
            except BaseException as error:  # noqa: BLE001 - surfaced below
                failures.append(error)
            finally:
                done.set()

        def reader(slot: int) -> None:
            try:
                with durable.session(snapshot_reads=True) as session:
                    while not done.is_set() or reads[slot] == 0:
                        result = session.sql(
                            "SELECT batch, COUNT(*) AS n FROM t GROUP BY batch"
                        )
                        for batch, n in result.rows():
                            if n != BATCH_ROWS:
                                raise AssertionError(
                                    f"torn batch {batch}: saw {n} rows"
                                )
                        reads[slot] += 1
            except BaseException as error:  # noqa: BLE001 - surfaced below
                failures.append(error)

        threads = [threading.Thread(target=writer)]
        threads += [
            threading.Thread(target=reader, args=(slot,)) for slot in range(READERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures
        assert all(count > 0 for count in reads)
        final = durable.sql("SELECT COUNT(*) AS n FROM t").scalar()
        assert final == BATCHES * BATCH_ROWS

    def test_long_lived_snapshot_is_frozen_during_churn(self, durable):
        _insert_batch(durable, 0)
        durable.checkpoint()
        with durable.snapshot() as view:
            for batch in range(1, 6):
                _insert_batch(durable, batch)
                if batch % 2 == 0:
                    durable.checkpoint()
                assert view.sql("SELECT COUNT(*) AS n FROM t").scalar() == BATCH_ROWS
                assert (
                    view.sql("SELECT MAX(batch) AS m FROM t").scalar() == 0
                )
        assert durable.sql("SELECT COUNT(*) AS n FROM t").scalar() == 6 * BATCH_ROWS

    def test_no_generations_leak_after_fuzz(self, durable, tmp_path):
        views = []
        for batch in range(4):
            _insert_batch(durable, batch)
            views.append(durable.snapshot())
            durable.checkpoint()
        for view in views:
            view.close()
        segments = tmp_path / "data" / "segments"
        generations = [p for p in segments.iterdir() if p.is_dir()]
        assert len(generations) == 1
        assert durable.obs.gauge("storage.snapshot.deferred_generations").value == 0

    def test_double_release_leaves_other_readers_generation_pinned(
        self, durable, tmp_path
    ):
        _insert_batch(durable, 0)
        durable.checkpoint()
        first = durable.snapshot()
        _insert_batch(durable, 1)
        second = durable.snapshot()  # same generation, its own handle
        assert first.handle is not second.handle
        generation = (
            tmp_path / "data" / "segments" / second.handle.generation_name
        )
        query = "SELECT batch, x FROM t ORDER BY batch, x"
        expected = second.sql(query).rows()
        durable.checkpoint()  # supersedes the pinned generation: GC deferred
        durable.engine.release_snapshot(first.handle)
        # The handle holds no pin any more; releasing it again must not
        # take the second reader's pin on the shared generation.
        durable.engine.release_snapshot(first.handle)
        assert generation.is_dir()
        assert second.sql(query).rows() == expected
        second.close()
        assert not generation.exists()
        first.close()


class TestPinAccounting:
    def test_every_pin_is_a_build_an_advance_or_a_reuse(self, durable):
        """``pins == builds + advances + reuses``, each pin counted once
        under the one way it was served."""

        def counts() -> dict:
            counters = _counters(durable)
            return {
                name: counters.get(f"storage.snapshot.{name}", 0)
                for name in ("pins", "builds", "advances", "reuses")
            }

        def pin() -> dict:
            before = counts()
            durable.snapshot().close()
            after = counts()
            assert after["pins"] == before["pins"] + 1
            assert (
                after["pins"]
                == after["builds"] + after["advances"] + after["reuses"]
            )
            return {
                name: after[name] - before[name]
                for name in ("builds", "advances", "reuses")
            }

        _insert_batch(durable, 0)
        assert pin() == {"builds": 1, "advances": 0, "reuses": 0}
        assert pin() == {"builds": 0, "advances": 0, "reuses": 1}
        _insert_batch(durable, 1)
        assert pin() == {"builds": 0, "advances": 1, "reuses": 0}
        assert pin() == {"builds": 0, "advances": 0, "reuses": 1}
        durable.checkpoint()
        assert pin() == {"builds": 1, "advances": 0, "reuses": 0}
        _insert_batch(durable, 2)
        with durable.snapshot():  # advanced, and held ...
            assert pin() == {"builds": 0, "advances": 0, "reuses": 1}
        assert counts() == {"pins": 7, "builds": 2, "advances": 2, "reuses": 3}


class TestRefusedAdvancesSayWhy:
    def pin_and_remember(self, db):
        """Leave an unpinned handle cached; return it with what it shows."""
        with db.snapshot() as view:
            handle = view.handle
            seen = (
                handle.key,
                {name: table.row_count for name, table in handle.tables.items()},
                _patch_rowids(view.catalog),
            )
        assert [index.name for index in handle.delta_fed] == ["pu", "ps"]
        return handle, seen

    def assert_refused(self, db, handle, seen, reason, caplog):
        """The next pin refuses to advance *handle*, builds, and says why."""
        snapshot_module._LOGGED_REFUSALS.discard(reason)
        before = _counters(db)
        with caplog.at_level("WARNING", logger="repro.storage.snapshot"):
            for _ in range(2):  # the second refusal is counted, not logged
                with db.snapshot() as view:
                    assert view.handle is not handle
                    assert _patch_rowids(view.catalog) == _patch_rowids(db.catalog)
                    rows = view.sql("SELECT COUNT(*) AS n FROM t").scalar()
                    assert rows == db.table("t").row_count
                # The refused handle was not half-replayed: old key, old rows.
                catalog = handle.catalog
                assert (
                    handle.key,
                    {name: table.row_count for name, table in handle.tables.items()},
                    _patch_rowids(catalog),
                ) == seen
                # Make it the only cached handle again: the next pin retries.
                db.engine._snapshots._handles.clear()
                db.engine._snapshots._handles[handle.key] = handle
        after = _counters(db)
        assert _refusals(db) == {reason: 2}
        assert after["storage.snapshot.builds"] - before["storage.snapshot.builds"] == 2
        assert after.get("storage.snapshot.advances", 0) == before.get(
            "storage.snapshot.advances", 0
        )
        logged = [r.getMessage() for r in caplog.records if "refused" in r.getMessage()]
        assert len(logged) == 1 and reason in logged[0]

    def test_ddl_in_the_span(self, indexed, caplog):
        handle, seen = self.pin_and_remember(indexed)
        indexed.sql("INSERT INTO t VALUES (5, 50)")
        indexed.sql("CREATE TABLE other (x BIGINT)")
        self.assert_refused(indexed, handle, seen, "ddl", caplog)

    def test_data_record_of_a_table_the_handle_lacks(self, indexed, caplog):
        handle, seen = self.pin_and_remember(indexed)
        del handle.tables["d"]
        seen[1].pop("d")
        indexed.sql("INSERT INTO d VALUES (7)")
        self.assert_refused(indexed, handle, seen, "unknown_table", caplog)

    def test_live_rebuild_marker(self, indexed, caplog):
        handle, seen = self.pin_and_remember(indexed)
        indexed.sql("INSERT INTO t VALUES (2, 60)")
        indexed.catalog.index("pu").rebuild()  # logs the ``invalidate`` delta
        self.assert_refused(indexed, handle, seen, "invalidated", caplog)

    def test_delta_that_fails_its_checksum(self, indexed, caplog):
        handle, seen = self.pin_and_remember(indexed)
        indexed.sql("INSERT INTO t VALUES (4, 5)")
        last_delta = [r for r in indexed.wal.records() if r.kind == "patch_delta"][-1]
        last_delta.payload["rows"] += 1
        self.assert_refused(indexed, handle, seen, "malformed", caplog)

    def test_pin_between_a_data_record_and_its_deltas(self, indexed, caplog):
        """A reader can pin ``wal.last_lsn`` while the writer has logged the
        data record but not yet the ``patch_delta`` records derived from it."""
        db = indexed
        handle, seen = self.pin_and_remember(db)
        snapshot_module._LOGGED_REFUSALS.discard("delta_gap")
        index = db.catalog.index("pu")
        log_delta = index.delta_sink
        observed = []

        def pin_first(index, delta):
            with caplog.at_level("WARNING", logger="repro.storage.snapshot"):
                with db.snapshot() as view:
                    observed.append(
                        (
                            view.handle is handle,
                            view.sql("SELECT COUNT(*) AS n FROM t").scalar(),
                            view.sql(
                                "SELECT COUNT(DISTINCT batch) AS n FROM t"
                            ).scalar(),
                            view.handle.delta_fed,
                        )
                    )
            log_delta(index, delta)

        index.delta_sink = pin_first
        db.sql("INSERT INTO t VALUES (4, 70), (9, 80)")
        index.delta_sink = log_delta
        # Built, not advanced; the new rows are visible and the indexes —
        # rebuilt from data, since the log owes them a delta — answer right.
        assert observed == [(False, 6, 4, [])]
        assert _refusals(db) == {"delta_gap": 1}
        assert (handle.key, _patch_rowids(handle.catalog)) == (seen[0], seen[2])
        assert handle.tables["t"].row_count == 4
        logged = [r.getMessage() for r in caplog.records if "refused" in r.getMessage()]
        assert len(logged) == 1 and "delta_gap" in logged[0]
        # With the deltas in the log, the same handle advances.
        db.engine._snapshots._handles.clear()
        db.engine._snapshots._handles[handle.key] = handle
        with db.snapshot() as view:
            assert view.handle is handle
            assert _patch_rowids(view.catalog) == _patch_rowids(db.catalog)
        assert _refusals(db) == {"delta_gap": 1}

    def test_replay_that_raises_half_way_evicts_the_handle(self, indexed, monkeypatch):
        """Past the checks nothing should fail; if something does, the handle's
        tables have moved and its indexes have not, so it must never be pinned."""
        handle, _ = self.pin_and_remember(indexed)
        registry = indexed.engine._snapshots
        assert list(registry._handles.values()) == [handle]
        indexed.sql("INSERT INTO t VALUES (2, 60)")

        def explode(self, delta):
            raise RuntimeError("mid-replay")

        with monkeypatch.context() as patched:
            patched.setattr(PatchIndex, "apply_external_delta", explode)
            with pytest.raises(RuntimeError, match="mid-replay"):
                indexed.snapshot()
        assert registry._handles == {}
        assert handle.tables["t"].row_count == 5  # half-replayed indeed
        assert _patch_rowids(handle.catalog) != _patch_rowids(indexed.catalog)
        builds = _counters(indexed)["storage.snapshot.builds"]
        with indexed.snapshot() as view:
            assert view.handle is not handle
            assert _patch_rowids(view.catalog) == _patch_rowids(indexed.catalog)
            assert view.sql("SELECT COUNT(DISTINCT batch) AS n FROM t").scalar() == 3
        assert _counters(indexed)["storage.snapshot.builds"] == builds + 1
        assert _refusals(indexed) == {}


class TestNoStallAfterDeleteOrReopen:
    """≈ one ``ColumnVector.__getitem__`` per table row before the classifier
    went stateless; now a small multiple of the batch, whatever the table."""

    ROWS = 50_000
    BATCH = 100

    @pytest.fixture
    def cell_reads(self, monkeypatch):
        calls = [0]
        original = ColumnVector.__getitem__

        def counting(self, position):
            calls[0] += 1
            return original(self, position)

        monkeypatch.setattr(ColumnVector, "__getitem__", counting)

        def since_last() -> int:
            count, calls[0] = calls[0], 0
            return count

        return since_last

    def batch(self, start: int) -> str:
        rows = [(start + i, 10 * (start + i)) for i in range(self.BATCH)]
        rows[3] = (7, 5)  # a duplicate of a kept value, an order violation
        return "INSERT INTO big VALUES " + ", ".join(f"({u}, {s})" for u, s in rows)

    def test_cell_reads_are_bounded_by_the_batch(self, durable, tmp_path, cell_reads):
        bound = 4 * self.BATCH
        db = durable
        schema = Schema([Field("u", DataType.INT64), Field("s", DataType.INT64)])
        keys = list(range(self.ROWS))
        db.create_table_from_pydict(
            "big", schema, {"u": keys, "s": [10 * k for k in keys]}, partition_count=4
        )
        db.sql("CREATE PATCHINDEX pu ON big(u) TYPE UNIQUE")
        db.sql("CREATE PATCHINDEX ps ON big(s) TYPE SORTED")
        db.checkpoint()
        session = db.session(snapshot_reads=True)
        distinct = "SELECT COUNT(DISTINCT u) AS n FROM big"
        assert session.sql(distinct).scalar() == self.ROWS

        db.sql("DELETE FROM big WHERE u BETWEEN 100 AND 149")
        cell_reads()
        db.sql(self.batch(self.ROWS))
        assert cell_reads() <= bound, "first INSERT after a DELETE"
        assert session.sql(distinct).scalar() == self.ROWS - 50 + self.BATCH - 1
        assert cell_reads() <= bound, "first snapshot read after it"
        assert _counters(db)["storage.snapshot.advances"] >= 1
        session.close()
        db.close()

        db = repro.connect(tmp_path / "data", parallelism=1)
        session = db.session(snapshot_reads=True)
        cell_reads()
        db.sql(self.batch(2 * self.ROWS))
        assert cell_reads() <= bound, "first INSERT after a reopen"
        assert session.sql(distinct).scalar() == self.ROWS - 50 + 2 * (self.BATCH - 1)
        assert cell_reads() <= bound, "first snapshot read after it"
        assert db.catalog.index("pu").patch_count == 3  # 7, and its two twins
        assert db.obs.export()["gauges"]["recovery.indexes_rebuilt"] == 0
        session.close()
        db.close()
