"""The network server: wire protocol, routing, and failure modes."""

import errno
import re
import socket
import struct
import threading
import time

import numpy as np
import pytest

import repro
from repro import DataType, Field, Schema
from repro.check import sanitize
from repro.errors import (
    BindError,
    ConnectionClosedError,
    ProtocolError,
    ReproError,
)
from repro.exec.result import QueryResult
from repro.serve import MAX_FRAME_BYTES, ServerClient, ServerThread
from repro.serve import client as client_module
from repro.serve import protocol
from repro.serve import server as server_module
from repro.serve.client import parse_uri
from repro.serve.protocol import (
    decode_body,
    encode_frame,
    error_from_wire,
    error_to_wire,
)
from repro.storage.column import ColumnVector


@pytest.fixture
def durable(tmp_path):
    db = repro.connect(tmp_path / "data", parallelism=1)
    db.sql("CREATE TABLE t (c BIGINT, v VARCHAR(5))")
    db.sql("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    return db


@pytest.fixture
def server(durable):
    with ServerThread(durable) as handle:
        yield handle


@pytest.fixture
def client(server):
    with ServerClient(server.host, server.port) as handle:
        yield handle


def _raw_connection(server) -> socket.socket:
    return socket.create_connection((server.host, server.port), timeout=10)


def _recv_frame(sock: socket.socket) -> dict | None:
    prefix = b""
    while len(prefix) < 4:
        chunk = sock.recv(4 - len(prefix))
        if not chunk:
            return None
        prefix += chunk
    (length,) = struct.unpack(">I", prefix)
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        if not chunk:
            return None
        body += chunk
    return decode_body(body)


def _run_threads(target, count: int) -> None:
    """Run ``target(slot)`` on *count* threads; fail on the first error."""
    failures: list[BaseException] = []

    def guarded(slot: int) -> None:
        try:
            target(slot)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            failures.append(error)

    threads = [
        threading.Thread(target=guarded, args=(slot,)) for slot in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not failures, failures


def _serve_threads() -> list[str]:
    """Names of the live threads a server started."""
    return sorted(
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(("repro-accept", "repro-conn", "repro-writer"))
    )


def _wait_until(condition, what: str, seconds: float = 30.0) -> None:
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


class TestWireHelpers:
    def test_parse_uri_with_port(self):
        assert parse_uri("repro://db.internal:9000") == ("db.internal", 9000)

    def test_parse_uri_default_port(self):
        assert parse_uri("repro://localhost") == ("localhost", 7376)

    def test_parse_uri_rejects_other_schemes(self):
        with pytest.raises(ProtocolError):
            parse_uri("http://localhost:7376")

    def test_parse_uri_rejects_bad_port(self):
        with pytest.raises(ProtocolError, match="invalid port"):
            parse_uri("repro://localhost:grpc")

    def test_error_round_trip_preserves_type(self):
        wire = error_to_wire(BindError("no such column q"))
        error = error_from_wire(wire)
        assert isinstance(error, BindError)
        assert "no such column q" in str(error)

    def test_unknown_error_type_degrades_to_repro_error(self):
        error = error_from_wire(
            {"error": {"type": "NoSuchError", "message": "boom"}}
        )
        assert type(error) is ReproError
        assert "boom" in str(error)


class TestServerRoundTrip:
    def test_hello_reports_engine(self, client):
        assert client.server_info["server"] == "repro"
        assert "snapshot_reads" not in client.server_info  # every read pins
        assert "durable" in client.server_info["engine"]

    def test_select_over_the_wire(self, client):
        result = client.sql("SELECT c, v FROM t ORDER BY c")
        assert isinstance(result, QueryResult)
        assert result.column_names == ("c", "v")
        assert result.to_pylist() == [(1, "a"), (2, "b"), (3, "c")]

    def test_write_then_read_back(self, client):
        message = client.sql("INSERT INTO t VALUES (4, 'd')")
        assert "1 rows inserted" in message.scalar()
        assert client.sql("SELECT COUNT(*) AS n FROM t").scalar() == 4

    def test_a_statement_is_classified_once(self, client, monkeypatch):
        # Server, session and snapshot view share one verdict: the
        # leading-keyword regex runs once per served statement.
        import repro.sql.session as session_module

        searched = []

        class CountingWord:
            @staticmethod
            def search(text):
                searched.append(text)
                return re.compile(r"[^\s(]+").search(text)

        monkeypatch.setattr(session_module, "_WORD", CountingWord)
        assert client.sql("SELECT COUNT(*) AS n FROM t").scalar() == 3
        client.sql("INSERT INTO t VALUES (4, 'd')")
        assert searched == [
            "SELECT COUNT(*) AS n FROM t",
            "INSERT INTO t VALUES (4, 'd')",
        ]

    def test_checkpoint_over_the_wire(self, client):
        info = client.checkpoint()
        assert info["engine"] == "durable"
        assert info["lsn"] >= 1

    def test_checkpoint_statement_routes_to_writer(self, client):
        result = client.sql("CHECKPOINT")
        assert isinstance(result, QueryResult)

    def test_explain_over_the_wire(self, client):
        assert "logical plan" in client.explain("SELECT c FROM t")

    def test_profile_travels_as_text(self, client):
        result = client.sql("SELECT c FROM t", profile=True)
        assert result.profile is not None
        assert "TableScan" in result.profile.to_text()

    def test_describe_metrics_cache_stats_ping(self, client):
        assert "t" in client.describe()
        metrics = client.metrics()
        assert "server.requests" in metrics.to_text()
        assert metrics.to_json().startswith("{")
        assert client.cache_stats() is not None
        assert client.ping() is True

    def test_set_parallelism_knob(self, client):
        client.parallelism = 2
        assert client.parallelism == 2
        assert client.sql("SELECT COUNT(*) AS n FROM t").scalar() == 3

    def test_set_unknown_knob_is_protocol_error(self, client):
        with pytest.raises(ProtocolError, match="unknown session knob"):
            client.set("fsync", False)

    def test_retired_backend_knob_is_refused_not_ignored(self, client):
        with pytest.raises(ProtocolError) as excinfo:
            client.set("backend", "process")
        message = str(excinfo.value)
        assert "unknown session knob 'backend'" in message
        for knob in ("parallelism", "profile"):
            assert knob in message
        assert "snapshot_reads" not in message  # not a knob: every read pins
        # The connection survives the refusal.
        assert client.set("parallelism", 2) == 2
        assert client.sql("SELECT COUNT(*) AS n FROM t").scalar() == 3
        # A stale caller of the removed keyword fails loudly too.
        with pytest.raises(TypeError):
            client.sql("SELECT c FROM t", backend="process")
        with pytest.raises(TypeError):
            client.explain("SELECT c FROM t", backend="process")

    def test_typed_errors_propagate(self, client):
        with pytest.raises(BindError, match="nope"):
            client.sql("SELECT nope FROM t")
        # SqlSyntaxError has a structured constructor, so it degrades
        # to a plain ReproError that names the original type.
        with pytest.raises(ReproError, match="SqlSyntaxError"):
            client.sql("SELEC c FROM t")
        # The connection survives an error response.
        assert client.ping() is True

    def test_connection_error_does_not_poison_session(self, client):
        with pytest.raises(ReproError):
            client.sql("SELECT c FROM missing_table")
        assert client.sql("SELECT COUNT(*) AS n FROM t").scalar() == 3

    def test_close_is_idempotent_and_final(self, server):
        handle = ServerClient(server.host, server.port)
        handle.close()
        handle.close()
        with pytest.raises(ConnectionClosedError):
            handle.sql("SELECT c FROM t")

    def test_connect_uri_returns_server_client(self, server):
        client = repro.connect(server.uri)
        try:
            assert isinstance(client, ServerClient)
            assert client.sql("SELECT COUNT(*) AS n FROM t").scalar() == 3
        finally:
            client.close()

    def test_optimizer_options_rejected_client_side(self, client):
        with pytest.raises(ProtocolError, match="wire"):
            client.sql("SELECT c FROM t", optimizer_options=object())


class TestConcurrentClients:
    def test_parallel_writers_and_readers(self, server, durable):
        def worker(slot: int) -> None:
            with ServerClient(server.host, server.port) as client:
                for i in range(10):
                    client.sql(
                        f"INSERT INTO t VALUES ({100 + slot * 10 + i}, 'w')"
                    )
                    count = client.sql("SELECT COUNT(*) AS n FROM t").scalar()
                    assert count >= 3 + i + 1 - 1

        _run_threads(worker, 4)
        assert durable.sql("SELECT COUNT(*) AS n FROM t").scalar() == 43
        # Group commit kicked in: batches were recorded by the writer loop.
        assert durable.obs.counter("server.write_batches").value >= 1
        assert durable.obs.counter("wal.group_commit.batches").value >= 1


    def test_sixteen_readers_against_one_writer(self, server, durable):
        """Each reader's thread pins its own snapshot: every reply is a
        whole prefix of what the writer inserted, and never shrinks."""
        done = threading.Event()

        def writer() -> None:
            with ServerClient(server.host, server.port) as client:
                key = 100
                while not done.is_set():
                    client.sql(f"INSERT INTO t VALUES ({key}, 'w')")
                    key += 1

        def reader(slot: int) -> None:
            seen = 0
            with ServerClient(server.host, server.port) as client:
                for _ in range(25):
                    keys = client.sql(
                        "SELECT c FROM t WHERE c >= 100 ORDER BY c"
                    ).columns["c"].values.tolist()
                    assert keys == list(range(100, 100 + len(keys)))
                    assert len(keys) >= seen
                    seen = len(keys)

        writing = threading.Thread(target=writer)
        writing.start()
        try:
            _run_threads(reader, 16)
        finally:
            done.set()
            writing.join(timeout=120)
        assert durable.obs.counter("server.connections.total").value == 17
        _wait_until(
            lambda: durable.obs.gauge("server.connections.active").value == 0,
            "every connection thread to finish",
        )


class TestProtocolAbuse:
    def test_oversized_length_prefix_gets_error_then_hangup(self, server):
        with _raw_connection(server) as sock:
            sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            response = _recv_frame(sock)
            assert response["error"]["type"] == "ProtocolError"
            assert _recv_frame(sock) is None  # server hung up

    def test_non_json_body_gets_error_then_hangup(self, server):
        with _raw_connection(server) as sock:
            body = b"\xff\xfe not json"
            sock.sendall(struct.pack(">I", len(body)) + body)
            response = _recv_frame(sock)
            assert response["error"]["type"] == "ProtocolError"
            assert _recv_frame(sock) is None

    def test_truncated_frame_gets_error_then_hangup(self, server):
        with _raw_connection(server) as sock:
            sock.sendall(struct.pack(">I", 100) + b'{"op": "ping"}')
            sock.shutdown(socket.SHUT_WR)
            response = _recv_frame(sock)
            assert response["error"]["type"] == "ProtocolError"
            assert "frame body (14/100 bytes)" in response["error"]["message"]
            assert _recv_frame(sock) is None  # reported once, then hung up

    def test_truncated_prefix_gets_error_then_hangup(self, server):
        with _raw_connection(server) as sock:
            sock.sendall(b"\x00\x00")
            sock.shutdown(socket.SHUT_WR)
            response = _recv_frame(sock)
            assert response["error"]["type"] == "ProtocolError"
            assert "length prefix (2/4 bytes)" in response["error"]["message"]
            assert _recv_frame(sock) is None

    def test_both_ends_read_frames_through_one_function(self):
        assert client_module.read_frame is protocol.read_frame
        assert server_module.read_frame is protocol.read_frame
        assert not hasattr(ServerClient, "_read_frame")
        assert not hasattr(ServerClient, "_read_exactly")

    def test_read_frame_checks(self, monkeypatch):
        def read(sent: bytes):
            ours, theirs = socket.socketpair()
            with ours, theirs:
                theirs.sendall(sent)
                theirs.shutdown(socket.SHUT_WR)
                return protocol.read_frame(ours)

        assert read(b"") is None  # clean EOF at a frame boundary
        assert read(encode_frame({"op": "ping"})) == {"op": "ping"}
        with pytest.raises(ProtocolError, match=r"length prefix \(3/4 bytes\)"):
            read(b"\x00\x00\x00")
        with pytest.raises(ProtocolError, match=r"frame body \(0/7 bytes\)"):
            read(struct.pack(">I", 7))
        with pytest.raises(ProtocolError, match="frame length 0 outside"):
            read(struct.pack(">I", 0))
        # An oversized length is refused before its body is allocated.
        allocated = []
        monkeypatch.setattr(
            protocol,
            "bytearray",
            lambda count: allocated.append(count) or bytearray(count),
            raising=False,
        )
        with pytest.raises(ProtocolError, match="outside"):
            read(struct.pack(">I", MAX_FRAME_BYTES + 1))
        assert allocated == [4]

    def test_client_drops_the_connection_on_a_truncated_reply(self):
        listener = socket.create_server(("127.0.0.1", 0))

        def fake_server() -> None:
            peer, _ = listener.accept()
            with peer:
                protocol.read_frame(peer)
                peer.sendall(encode_frame({"wire_version": protocol.WIRE_VERSION}))
                protocol.read_frame(peer)
                peer.sendall(struct.pack(">I", 50) + b'{"ok"')

        serving = threading.Thread(target=fake_server)
        serving.start()
        try:
            client = ServerClient(*listener.getsockname())
            with pytest.raises(ProtocolError, match=r"frame body \(5/50 bytes\)"):
                client.ping()
            with pytest.raises(ConnectionClosedError, match="client is closed"):
                client.ping()
        finally:
            serving.join(timeout=30)
            listener.close()

    def test_unknown_op_keeps_connection_open(self, server):
        with _raw_connection(server) as sock:
            sock.sendall(encode_frame({"op": "drop_everything"}))
            response = _recv_frame(sock)
            assert response["error"]["type"] == "ProtocolError"
            sock.sendall(encode_frame({"op": "ping"}))
            assert _recv_frame(sock) == {"ok": True}

    def test_sql_without_text_is_protocol_error(self, server):
        with _raw_connection(server) as sock:
            sock.sendall(encode_frame({"op": "sql", "text": 42}))
            response = _recv_frame(sock)
            assert response["error"]["type"] == "ProtocolError"

    def test_mid_query_disconnect_leaves_server_healthy(self, server):
        with _raw_connection(server) as sock:
            sock.sendall(encode_frame({"op": "sql", "text": "CHECKPOINT"}))
            # Vanish without reading the response.
        with ServerClient(server.host, server.port) as client:
            assert client.ping() is True
            assert client.sql("SELECT COUNT(*) AS n FROM t").scalar() == 3


class TestAsyncClient:
    """Once the asyncio client's tests; :class:`ServerClient` is the one
    client now, driven from threads where those drove coroutines."""

    def test_async_round_trip(self, server):
        with ServerClient(server.host, server.port) as client:
            assert client.server_info["server"] == "repro"
            assert client.ping() is True
            result = client.sql("SELECT COUNT(*) AS n FROM t")
            assert result.scalar() == 3
            client.sql("INSERT INTO t VALUES (9, 'z')")
            assert "logical plan" in client.explain("SELECT c FROM t")
            assert client.set("profile", True) is True
            info = client.checkpoint()
            assert info["engine"] == "durable"

    def test_many_async_clients(self, server):
        totals = [0] * 6

        def one_client(slot: int) -> None:
            with ServerClient(server.host, server.port) as client:
                for _ in range(5):
                    result = client.sql("SELECT COUNT(*) AS n FROM t")
                    totals[slot] += result.scalar()

        _run_threads(one_client, len(totals))
        assert totals == [15] * 6


class TestMemoryEngineServer:
    def test_reads_pin_snapshots_on_their_connection_thread(self):
        db = repro.connect()
        db.sql("CREATE TABLE t (c BIGINT)")
        db.sql("INSERT INTO t VALUES (1), (2)")
        pins = db.obs.counter("storage.snapshot.pins")
        with ServerThread(db) as server:
            with ServerClient(server.host, server.port) as client:
                assert client.sql("SELECT COUNT(*) AS n FROM t").scalar() == 2
                client.sql("INSERT INTO t VALUES (3)")
                assert client.sql("SELECT COUNT(*) AS n FROM t").scalar() == 3
                assert "rows=" in client.explain(
                    "SELECT COUNT(*) AS n FROM t", analyze=True
                )
        assert pins.value == 3
        # Only the write went through the writer queue.
        assert db.obs.counter("server.write_batches").value == 1


class TestServerLifecycle:
    def test_stop_then_client_sees_closed_connection(self, durable):
        server = ServerThread(durable).start()
        client = ServerClient(server.host, server.port)
        assert client.ping() is True
        server.stop()
        with pytest.raises(ConnectionClosedError):
            for _ in range(10):
                client.ping()
        client.close()

    def test_stop_with_idle_running_and_queued_statements(
        self, durable, monkeypatch
    ):
        """stop() with one client parked in recv, one mid-INSERT on the
        writer and one statement queued behind it."""
        entered, release = threading.Event(), threading.Event()
        sweep = durable.run_pending_rebuilds

        def held_sweep():
            entered.set()
            assert release.wait(timeout=30)
            return sweep()

        monkeypatch.setattr(durable, "run_pending_rebuilds", held_sweep)
        server = ServerThread(durable).start()
        clients = {
            name: ServerClient(server.host, server.port)
            for name in ("idle", "running", "queued")
        }
        outcomes: dict[str, object] = {}

        def statement(name: str, key: int) -> None:
            try:
                outcomes[name] = clients[name].sql(
                    f"INSERT INTO t VALUES ({key}, 'x')"
                )
            except ReproError as error:
                outcomes[name] = error

        running = threading.Thread(target=statement, args=("running", 10))
        running.start()
        assert entered.wait(timeout=30)  # the writer is inside its batch
        queued = threading.Thread(target=statement, args=("queued", 11))
        queued.start()
        depth = durable.obs.gauge("server.write_queue.depth")
        _wait_until(lambda: depth.value == 1, "the second INSERT to queue")

        stopping = threading.Thread(target=server.stop)
        stopping.start()
        # The idle connection is hung up on only once the stop flag is
        # up, so from here on the writer takes nothing new off its queue.
        with pytest.raises(ConnectionClosedError):
            while True:
                clients["idle"].ping()
        release.set()
        for thread in (stopping, running, queued):
            thread.join(timeout=30)
            assert not thread.is_alive()

        assert isinstance(outcomes["queued"], ConnectionClosedError)
        # The writer finished the statement it had; its reply was dropped.
        assert isinstance(outcomes["running"], ConnectionClosedError)
        keys = durable.sql("SELECT c FROM t WHERE c >= 10").columns["c"]
        assert keys.values.tolist() == [10]
        assert _serve_threads() == []
        assert durable.obs.gauge("server.connections.active").value == 0
        assert sanitize.check_balances() == []
        server.stop()  # a second stop() is a no-op
        with pytest.raises(OSError):
            _raw_connection(server)
        for client in clients.values():
            client.close()

    def test_client_vanishing_mid_reply_frees_its_thread(self, durable, server):
        """A peer that reads only the length prefix of a multi-part
        reply and closes: its thread exits, nothing stays pinned."""
        rows = 200_000
        big = durable.create_table(
            "big", Schema([Field("k", DataType.INT64), Field("v", DataType.INT64)])
        )
        keys = np.arange(rows, dtype=np.int64)
        big.load_columns(
            {
                "k": ColumnVector(DataType.INT64, keys),
                "v": ColumnVector(DataType.INT64, keys * 3),
            }
        )
        assert 16 * rows > 16 * server_module._SINGLE_WRITE_BYTES
        with _raw_connection(server) as sock:
            sock.sendall(encode_frame({"op": "sql", "text": "SELECT k, v FROM big"}))
            prefix = sock.recv(4, socket.MSG_WAITALL)
            assert struct.unpack(">I", prefix)[0] > 16 * rows
        gauges = durable.obs.gauge
        _wait_until(
            lambda: gauges("server.connections.active").value == 0
            and "repro-conn" not in _serve_threads(),
            "the abandoned connection's thread to exit",
        )
        assert gauges("storage.snapshot.active").value == 0
        assert sanitize.check_balances() == []
        with ServerClient(server.host, server.port) as client:
            assert client.sql("SELECT COUNT(*) AS n FROM big").scalar() == rows
        assert durable.obs.counter("server.connections.total").value == 2

    def test_a_failed_accept_does_not_end_accepting(
        self, durable, monkeypatch, caplog
    ):
        """accept() out of descriptors once, then a peer that is gone by
        setsockopt: each costs that one connection, not the listener."""
        monkeypatch.setattr(server_module, "_ACCEPT_RETRY_SECONDS", 0.0)
        failures = [OSError(errno.EMFILE, "Too many open files")]
        accept, setsockopt = socket.socket.accept, socket.socket.setsockopt

        def flaky_accept(listener):
            if failures:
                raise failures.pop()
            return accept(listener)

        nodelay_failures = [OSError(errno.EINVAL, "Invalid argument")]

        def flaky_setsockopt(sock, level, option, *value):
            if option == socket.TCP_NODELAY and nodelay_failures:
                raise nodelay_failures.pop()
            return setsockopt(sock, level, option, *value)

        monkeypatch.setattr(socket.socket, "accept", flaky_accept)
        monkeypatch.setattr(socket.socket, "setsockopt", flaky_setsockopt)
        with ServerThread(durable) as server:
            with pytest.raises(ConnectionClosedError):
                ServerClient(server.host, server.port)  # lost to setsockopt
            assert failures == [] and nodelay_failures == []
            with ServerClient(server.host, server.port) as client:
                assert client.ping() is True
            assert "repro-accept" in _serve_threads()
        assert "accept failed, still listening" in caplog.text
        assert durable.obs.counter("server.connections.total").value == 1
        assert _serve_threads() == []

    def test_a_failed_group_fsync_fails_its_statements_not_the_writer(
        self, durable, server, monkeypatch
    ):
        """The one fsync of a two-INSERT group raises: both clients are
        told, the batch before it and the statement after it are not."""
        entered, release = threading.Event(), threading.Event()
        sweep, sync = durable.run_pending_rebuilds, durable.wal.sync
        syncs: list[int] = []

        def held_sweep():
            if not entered.is_set():
                entered.set()
                assert release.wait(timeout=30)
            return sweep()

        def failing_sync():
            syncs.append(len(syncs))
            if len(syncs) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return sync()

        monkeypatch.setattr(durable, "run_pending_rebuilds", held_sweep)
        monkeypatch.setattr(durable.wal, "sync", failing_sync)
        outcomes: dict[int, object] = {}

        def insert(key: int) -> None:
            with ServerClient(server.host, server.port) as client:
                try:
                    outcomes[key] = client.sql(f"INSERT INTO t VALUES ({key}, 'x')")
                except ReproError as error:
                    outcomes[key] = error

        threads = [threading.Thread(target=insert, args=(10,))]
        threads[0].start()
        assert entered.wait(timeout=30)  # the writer is inside batch one
        threads += [threading.Thread(target=insert, args=(key,)) for key in (11, 12)]
        for thread in threads[1:]:
            thread.start()
        depth = durable.obs.gauge("server.write_queue.depth")
        _wait_until(lambda: depth.value == 2, "both INSERTs to queue")
        release.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()

        assert isinstance(outcomes[10], QueryResult)
        for key in (11, 12):
            assert isinstance(outcomes[key], ReproError)
            assert "No space left on device" in str(outcomes[key])
        assert "repro-writer" in _serve_threads()
        with ServerClient(server.host, server.port) as client:
            client.sql("INSERT INTO t VALUES (13, 'x')")
            keys = client.sql("SELECT c FROM t WHERE c >= 10").columns["c"]
        # 11 and 12 were applied and logged, only not known durable —
        # what an in-process INSERT whose own fsync raises leaves too.
        assert sorted(keys.values.tolist()) == [10, 11, 12, 13]
        assert len(syncs) == 3

    def test_stop_leaves_no_thread_behind(self, durable):
        with ServerThread(durable) as server:
            with ServerClient(server.host, server.port) as client:
                assert client.ping() is True
                assert _serve_threads() == [
                    "repro-accept", "repro-conn", "repro-writer",
                ]
            abandoned = ServerClient(server.host, server.port)
        assert _serve_threads() == []
        assert durable.obs.gauge("server.connections.active").value == 0
        assert sanitize.check_balances() == []
        with pytest.raises(ConnectionClosedError):
            abandoned.ping()

    def test_server_metrics_namespaces(self, server, durable):
        with ServerClient(server.host, server.port) as client:
            client.sql("SELECT COUNT(*) AS n FROM t")
        assert durable.obs.counter("server.connections.total").value >= 1
        assert durable.obs.counter("server.requests.sql").value >= 1
        assert durable.obs.counter("session.opened").value >= 1
