"""Snapshot isolation under concurrent writers, readers, and checkpoints.

One writer thread appends fixed-size batches (each batch is a single INSERT,
hence a single WAL record) and periodically checkpoints.  Reader threads run
snapshot-pinned scans the whole time and assert that every statement observes
a state that lies exactly on a statement boundary: every batch group is either
fully visible (BATCH_ROWS rows) or not visible at all — never torn.
"""

import threading

import pytest

import repro

BATCH_ROWS = 20
BATCHES = 24
CHECKPOINT_EVERY = 7
READERS = 4


@pytest.fixture
def durable(tmp_path):
    db = repro.connect(tmp_path / "data", parallelism=1)
    db.sql("CREATE TABLE t (batch BIGINT, x BIGINT)")
    return db


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
