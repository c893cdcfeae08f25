"""Snapshot isolation under concurrent writers, readers, and checkpoints.

One writer thread appends fixed-size batches (each batch is a single INSERT,
hence a single WAL record) and periodically checkpoints.  Reader threads run
snapshot-pinned scans the whole time and assert that every statement observes
a state that lies exactly on a statement boundary: every batch group is either
fully visible (BATCH_ROWS rows) or not visible at all — never torn.  Both
engines run it: a pin is a copy of the live catalog, taken under the state
lock every mutation holds, on either.

A pin copies, or shares the latest copy while nothing changed
(``pins == builds + reuses``), and the copy is frozen: whatever mutation
follows — data, a rebuild, index DDL, a checkpoint — the snapshot keeps
returning the rows and patch rowids of its pin.  The stall guard at the end
counts ``ColumnVector.__getitem__`` calls instead of timing anything:
neither the writer's first ``INSERT`` after a ``DELETE`` or a reopen, nor
the reader's first snapshot after it, may read the indexed column cell by
cell.
"""

import gc
import threading
import weakref

import pytest

import repro
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


@pytest.fixture(params=["memory", "durable"])
def db(request, tmp_path):
    """An empty table ``t`` on each engine."""
    db = repro.connect(
        tmp_path / "data" if request.param == "durable" else None, parallelism=1
    )
    db.sql("CREATE TABLE t (batch BIGINT, x BIGINT)")
    yield db
    db.close()


def _counters(db) -> dict:
    return db.obs.export()["counters"]


def _insert_batch(db, batch: int) -> None:
    values = ", ".join(f"({batch}, {i})" for i in range(BATCH_ROWS))
    db.sql(f"INSERT INTO t VALUES {values}")


class TestSnapshotIsolationFuzz:
    def test_concurrent_readers_never_see_torn_batches(self, db):
        done = threading.Event()
        failures: list[BaseException] = []
        reads = [0] * READERS

        def writer() -> None:
            try:
                for batch in range(BATCHES):
                    _insert_batch(db, batch)
                    if batch % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
                        db.checkpoint()
            except BaseException as error:  # noqa: BLE001 - surfaced below
                failures.append(error)
            finally:
                done.set()

        def reader(slot: int) -> None:
            try:
                with db.session(snapshot_reads=True) as session:
                    while not done.is_set() or reads[slot] == 0:
                        result = session.sql(
                            "SELECT batch, COUNT(*) AS n FROM t GROUP BY batch"
                        )
                        for batch, n in result.to_pylist():
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
        final = db.sql("SELECT COUNT(*) AS n FROM t").scalar()
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
        expected = second.sql(query).to_pylist()
        durable.checkpoint()  # supersedes the pinned generation: GC deferred
        durable.engine.release_snapshot(first.handle)
        # The handle holds no pin any more; releasing it again must not
        # take the second reader's pin on the shared generation.
        durable.engine.release_snapshot(first.handle)
        assert generation.is_dir()
        assert second.sql(query).to_pylist() == expected
        second.close()
        assert not generation.exists()
        first.close()


class TestPinAccounting:
    def test_every_pin_is_a_build_or_a_reuse(self, durable):
        """``pins == builds + reuses``, each pin counted once under the one
        way it was served; a checkpoint pins the copy it writes too."""

        def counts() -> dict:
            counters = _counters(durable)
            return {
                name: counters.get(f"storage.snapshot.{name}", 0)
                for name in ("pins", "builds", "reuses")
            }

        def moved(run) -> dict:
            before = counts()
            run()
            after = counts()
            assert after["pins"] == after["builds"] + after["reuses"]
            return {name: after[name] - before[name] for name in after}

        def pin() -> dict:
            return moved(lambda: durable.snapshot().close())

        _insert_batch(durable, 0)
        assert pin() == {"pins": 1, "builds": 1, "reuses": 0}
        assert pin() == {"pins": 1, "builds": 0, "reuses": 1}
        _insert_batch(durable, 1)
        assert pin() == {"pins": 1, "builds": 1, "reuses": 0}
        # Nothing changed since that copy: the checkpoint writes it.
        assert moved(durable.checkpoint) == {"pins": 1, "builds": 0, "reuses": 1}
        assert pin() == {"pins": 1, "builds": 1, "reuses": 0}  # new generation
        _insert_batch(durable, 2)
        with durable.snapshot():  # built, and held ...
            assert pin() == {"pins": 1, "builds": 0, "reuses": 1}
        assert counts() == {"pins": 7, "builds": 4, "reuses": 3}


class TestCopyLifetime:
    def test_a_replaced_copy_is_freed_by_reference_counting(self, db):
        """A copy shares the column vectors of its moment; a writer
        replaces them on every statement, so a copy the cycle collector
        had to find would keep a superseded set alive per write."""
        _insert_batch(db, 0)
        db.sql("CREATE PATCHINDEX pu ON t(batch) TYPE UNIQUE")
        _insert_batch(db, 1)  # the index now has drift counters
        collecting = gc.isenabled()
        gc.disable()
        try:
            with db.snapshot() as view:
                view.sql("SELECT COUNT(DISTINCT batch) AS n FROM t")
                copies = [weakref.ref(view.catalog), weakref.ref(view.table("t"))]
                copies.append(weakref.ref(view.catalog.index("pu")))
            _insert_batch(db, 2)
            db.snapshot().close()  # the registry lets go of the old copy
            del view
            assert [ref() for ref in copies] == [None, None, None]
        finally:
            if collecting:
                gc.enable()


def _frozen_state(catalog) -> tuple:
    """Every cell of ``f`` and every index's patch rowids."""
    table = catalog.table("f")
    return (
        {name: table.read_column(name).to_pylist() for name in table.schema.names},
        {index.name: index.rowids().tolist() for index in catalog.indexes()},
    )


#: One of each kind of mutation a pinned snapshot must not see.
MUTATIONS = {
    "insert_rows": lambda db: db.table("f").insert_rows([[3, 1, 0], [50, 60, 70]]),
    "load_columns": lambda db: db.table("f").load_columns(
        {
            name: ColumnVector.from_pylist(DataType.INT64, values)
            for name, values in {"u": [9, 1], "s": [2, 99], "w": [0, 0]}.items()
        }
    ),
    "delete_rowids": lambda db: db.table("f").delete_rowids([0, 4]),
    "update_rowid indexed": lambda db: db.table("f").update_rowid(2, "u", 3),
    "update_rowid unindexed": lambda db: db.table("f").update_rowid(2, "w", -5),
    "rebuild": lambda db: db.catalog.index("pu").rebuild(),
    "drop patchindex": lambda db: db.sql("DROP PATCHINDEX pu"),
    "create patchindex": lambda db: db.sql("CREATE PATCHINDEX pw ON f(w) TYPE UNIQUE"),
    "checkpoint": lambda db: db.checkpoint(),
}


class TestFrozenAtItsPin:
    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_snapshot_keeps_the_rows_and_patches_of_its_pin(self, db, mutation):
        db.sql("CREATE TABLE f (u BIGINT, s BIGINT, w BIGINT)")
        db.sql(
            "INSERT INTO f VALUES (1, 10, 5), (7, 20, 5), (3, 5, 6), "
            "(7, 30, 7), (4, 40, 8), (5, 50, 9)"
        )
        db.sql("CREATE PATCHINDEX pu ON f(u) TYPE UNIQUE")
        db.sql("CREATE PATCHINDEX ps ON f(s) TYPE SORTED")
        db.table("f").delete_rowids([1])  # the other 7 stays a patch: drift
        pinned = _frozen_state(db.catalog)
        assert pinned[1] == {"pu": [2], "ps": [1]}
        query = "SELECT COUNT(DISTINCT u) AS n FROM f"
        with db.snapshot() as view:
            MUTATIONS[mutation](db)
            if mutation != "checkpoint":  # which changes no row and no patch
                assert _frozen_state(db.catalog) != pinned
            assert _frozen_state(view.catalog) == pinned
            assert view.sql(query).scalar() == 5
            assert view.sql("SELECT u, s, w FROM f").to_pylist() == list(
                zip(*pinned[0].values())
            )


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
