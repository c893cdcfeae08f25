"""Runtime concurrency sanitizer: lock-order watchdog and resource ledger.

Unit half: :class:`SanitizedLock` raises a typed
:class:`~repro.errors.LockOrderError` (both stacks attached) the moment
an acquisition inverts a recorded order — no deadlock interleaving
required — and the :class:`ResourceLedger` turns unbalanced pins (a
leak, or a release nobody tracked) into
:class:`~repro.errors.ResourceLeakError` at teardown.

Fuzz half (the ISSUE's concurrent-session scenario): a durable database
behind a :class:`ServerThread` under ``REPRO_SANITIZE=1`` takes
concurrent readers, a writer, a checkpoint, a sort through a pinned
snapshot and a client that disconnects mid-query — and every balance (snapshot pins,
cache accounting) must land back on zero.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.check import sanitize
from repro.check.sanitize import (
    ResourceLedger,
    SanitizedLock,
    make_lock,
)
from repro.errors import LockOrderError, ResourceLeakError


@pytest.fixture(autouse=True)
def _clean_graph():
    sanitize.reset()
    yield
    sanitize.reset()


# -- lock order watchdog ------------------------------------------------------


class TestSanitizedLock:
    def test_consistent_order_is_silent(self):
        a = SanitizedLock("unit.a")
        b = SanitizedLock("unit.b")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert ("unit.a", "unit.b") in sanitize.order_edges()

    def test_inversion_raises_with_both_stacks(self):
        a = SanitizedLock("unit.a")
        b = SanitizedLock("unit.b")
        with a:
            with b:
                pass
        with pytest.raises(LockOrderError) as excinfo:
            with b:
                with a:
                    pass
        error = excinfo.value
        assert error.first == "unit.b"
        assert error.second == "unit.a"
        assert "this acquisition" in str(error)
        assert "recorded acquisition" in str(error)
        assert error.current_stack and error.prior_stack

    def test_inversion_across_threads(self):
        a = SanitizedLock("unit.a")
        b = SanitizedLock("unit.b")

        def record():
            with a:
                with b:
                    pass

        worker = threading.Thread(target=record)
        worker.start()
        worker.join()
        # A *different* thread taking the opposite order still trips:
        # the graph is global, exactly like the deadlock would be.
        with pytest.raises(LockOrderError):
            with b:
                with a:
                    pass

    def test_same_thread_reacquire_raises_instead_of_hanging(self):
        lock = SanitizedLock("unit.self")
        with pytest.raises(LockOrderError) as excinfo:
            with lock:
                with lock:
                    pass
        assert excinfo.value.first == "unit.self"
        assert not lock.locked()

    def test_reentrant_lock_self_nests(self):
        lock = SanitizedLock("unit.reentrant", reentrant=True)
        with lock:
            with lock:
                pass
        assert not lock.locked()
        assert sanitize.order_edges() == {}

    def test_sibling_instances_share_a_graph_node(self):
        # Two instances of the same lock *site* must not create a
        # self-edge (e.g. two BlockCache instances in one process).
        first = SanitizedLock("unit.site")
        second = SanitizedLock("unit.site")
        with first:
            with second:
                pass
        assert sanitize.order_edges() == {}

    def test_held_time_histogram_recorded(self):
        lock = SanitizedLock("unit.timed")
        with lock:
            pass
        histogram = sanitize.registry().histogram(
            "sanitize.lock.unit.timed.held_seconds"
        )
        assert histogram.count >= 1

    def test_make_lock_plain_when_disabled(self, monkeypatch):
        monkeypatch.delenv(sanitize.ENV_FLAG, raising=False)
        assert not isinstance(make_lock("unit.off"), SanitizedLock)

    def test_make_lock_sanitized_when_enabled(self, monkeypatch):
        monkeypatch.setenv(sanitize.ENV_FLAG, "1")
        lock = make_lock("unit.on", reentrant=True)
        assert isinstance(lock, SanitizedLock)
        assert lock.reentrant


# -- resource ledger ----------------------------------------------------------


class TestResourceLedger:
    def test_balanced_tracking(self):
        ledger = ResourceLedger()
        ledger.track("pin", "t1")
        ledger.track("pin", "t2")
        ledger.release("pin", "t1")
        assert ledger.balances() == {"pin": 1}
        ledger.release("pin", "t2")
        assert ledger.balances() == {}

    def test_unknown_release_is_caught(self, monkeypatch):
        # Every resource lives in one process: a release nobody tracked
        # is a double release or a bookkeeping bug, never "the other
        # half happened elsewhere".
        ledger = ResourceLedger()
        ledger.release("snapshot_pin", "never_tracked")
        assert ledger.balances() == {}
        ((kind, token, stack),) = ledger.unmatched()
        assert (kind, token) == ("snapshot_pin", "never_tracked")
        assert "test_sanitize" in stack

        monkeypatch.setenv(sanitize.ENV_FLAG, "1")
        sanitize.reset()
        sanitize.track_resource("snapshot_pin", "once")
        sanitize.release_resource("snapshot_pin", "once")
        sanitize.assert_balanced()
        sanitize.release_resource("snapshot_pin", "once")
        (problem,) = sanitize.check_balances()
        assert "'once' released but never tracked" in problem
        with pytest.raises(ResourceLeakError, match="never tracked"):
            sanitize.assert_balanced()
        sanitize.reset()
        sanitize.assert_balanced()

    def test_outstanding_carries_acquiring_stack(self):
        ledger = ResourceLedger()
        ledger.track("pin", "leaky")
        ((kind, token, count, stack),) = ledger.outstanding()
        assert (kind, token, count) == ("pin", "leaky", 1)
        assert "test_sanitize" in stack

    def test_assert_balanced_raises_on_leak(self, monkeypatch):
        monkeypatch.setenv(sanitize.ENV_FLAG, "1")
        sanitize.track_resource("snapshot_pin", "leaked-key")
        with pytest.raises(ResourceLeakError) as excinfo:
            sanitize.assert_balanced()
        assert "leaked-key" in str(excinfo.value)
        sanitize.reset()
        sanitize.assert_balanced()

    def test_disabled_tracking_is_a_noop(self, monkeypatch):
        monkeypatch.delenv(sanitize.ENV_FLAG, raising=False)
        sanitize.track_resource("snapshot_pin", "ghost")
        assert sanitize.ledger().balances() == {}


class TestCacheAccounting:
    def test_drifted_cache_is_reported(self, monkeypatch):
        monkeypatch.setenv(sanitize.ENV_FLAG, "1")
        from repro.storage.cache import BlockCache
        from repro.storage.column import ColumnVector
        from repro.types import DataType

        cache = BlockCache(capacity_bytes=1 << 20)
        vector = ColumnVector.from_pylist(DataType.INT64, list(range(64)))
        cache.put(("t", "s", "c", 0, 0), vector)
        assert sanitize.verify_caches() == []
        cache._bytes += 123  # simulate an unbalanced admit/evict pair
        problems = sanitize.verify_caches()
        assert problems and "drifted" in problems[0]


# -- end-to-end: pins and locks under real concurrency ------------------------


def _build_db(root, monkeypatch):
    import numpy as np

    from repro.storage.column import ColumnVector
    from repro.storage.database import Database
    from repro.storage.schema import Field, Schema
    from repro.types import DataType

    monkeypatch.setenv(sanitize.ENV_FLAG, "1")
    sanitize.reset()
    db = Database(path=root, sync=False)
    n = 8192
    schema = Schema([Field("k", DataType.INT64), Field("v", DataType.INT64)])
    table = db.create_table("fuzz", schema, partition_count=4)
    rng = np.random.default_rng(11)
    table.load_columns(
        {
            "k": ColumnVector(DataType.INT64, np.arange(n, dtype=np.int64)),
            "v": ColumnVector(
                DataType.INT64, rng.integers(0, 97, n).astype(np.int64)
            ),
        }
    )
    db.sql("CHECKPOINT")
    return db


class TestConcurrentSessionFuzz:
    def test_fuzz_balances_return_to_zero(self, tmp_path, monkeypatch):
        import repro
        from repro.serve import ServerClient, ServerThread
        from repro.serve.protocol import encode_frame

        db = _build_db(tmp_path / "data", monkeypatch)
        failures: list[BaseException] = []

        def reader(host, port):
            try:
                with ServerClient(host, port) as client:
                    for _ in range(12):
                        result = client.sql(
                            "SELECT COUNT(*) AS n FROM fuzz"
                        )
                        if result.scalar() < 8192:
                            raise AssertionError("reader saw missing rows")
            except BaseException as exc:  # noqa: BLE001 - collected
                failures.append(exc)

        def writer(host, port):
            try:
                with ServerClient(host, port) as client:
                    for step in range(12):
                        client.sql(
                            f"INSERT INTO fuzz VALUES ({100000 + step}, 1)"
                        )
                        if step == 6:
                            client.sql("CHECKPOINT")
            except BaseException as exc:  # noqa: BLE001 - collected
                failures.append(exc)

        try:
            with ServerThread(db) as server:
                threads = [
                    threading.Thread(target=reader, args=(server.host, server.port)),
                    threading.Thread(target=reader, args=(server.host, server.port)),
                    threading.Thread(target=writer, args=(server.host, server.port)),
                ]
                for thread in threads:
                    thread.start()
                # A rude client: sends a query frame and vanishes
                # without ever reading the response.
                rude = socket.create_connection(
                    (server.host, server.port), timeout=10
                )
                rude.sendall(
                    encode_frame(
                        {"op": "sql", "text": "SELECT COUNT(*) AS n FROM fuzz"}
                    )
                )
                rude.close()
                for thread in threads:
                    thread.join(timeout=60)
                for thread in threads:
                    if thread.is_alive():
                        raise AssertionError("fuzz thread hung")
            if failures:
                raise failures[0]

            # A sort through a pinned snapshot takes the cache lock
            # under the sanitizer too.
            query = "SELECT k, v FROM fuzz WHERE v >= 0 ORDER BY v"
            with db.snapshot() as view:
                pinned = view.sql(query).to_pylist()
            assert pinned == db.sql(query).to_pylist()
        finally:
            db.close()

        assert sanitize.check_balances() == []
        # The engine's hot locks really were sanitized: held-time
        # histograms exist for the snapshot lock the fuzz hammered.
        held = sanitize.registry().histogram(
            "sanitize.lock.storage.engine.snapshot.held_seconds"
        )
        assert held.count > 0
