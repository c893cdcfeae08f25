"""The network server: wire protocol, routing, and failure modes."""

import asyncio
import re
import socket
import struct
import threading

import pytest

import repro
from repro.errors import (
    BindError,
    ConnectionClosedError,
    ProtocolError,
    ReproError,
)
from repro.exec.result import QueryResult
from repro.serve import (
    AsyncReproClient,
    MAX_FRAME_BYTES,
    ServerClient,
    ServerThread,
)
from repro.serve.client import parse_uri
from repro.serve.protocol import (
    decode_body,
    encode_frame,
    error_from_wire,
    error_to_wire,
)


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
        assert client.server_info["snapshot_reads"] is True
        assert "durable" in client.server_info["engine"]

    def test_select_over_the_wire(self, client):
        result = client.sql("SELECT c, v FROM t ORDER BY c")
        assert isinstance(result, QueryResult)
        assert result.column_names == ("c", "v")
        assert result.rows() == [(1, "a"), (2, "b"), (3, "c")]
        assert result.fetchone() == (1, "a")

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
        for knob in ("parallelism", "profile", "snapshot_reads"):
            assert knob in message
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
        failures: list[BaseException] = []

        def worker(slot: int) -> None:
            try:
                with ServerClient(server.host, server.port) as client:
                    for i in range(10):
                        client.sql(
                            f"INSERT INTO t VALUES ({100 + slot * 10 + i}, 'w')"
                        )
                        count = client.sql(
                            "SELECT COUNT(*) AS n FROM t"
                        ).scalar()
                        assert count >= 3 + i + 1 - 1
            except BaseException as error:  # noqa: BLE001 - surfaced below
                failures.append(error)

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures
        assert durable.sql("SELECT COUNT(*) AS n FROM t").scalar() == 43
        # Group commit kicked in: batches were recorded by the writer loop.
        assert durable.obs.counter("server.write_batches").value >= 1
        assert durable.obs.counter("wal.group_commit.batches").value >= 1


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
    def test_async_round_trip(self, server):
        async def scenario() -> None:
            async with await AsyncReproClient.connect(
                server.host, server.port
            ) as client:
                assert client.server_info["server"] == "repro"
                assert await client.ping() is True
                result = await client.sql("SELECT COUNT(*) AS n FROM t")
                assert result.scalar() == 3
                await client.sql("INSERT INTO t VALUES (9, 'z')")
                assert "logical plan" in await client.explain(
                    "SELECT c FROM t"
                )
                assert await client.set("profile", True) is True
                info = await client.checkpoint()
                assert info["engine"] == "durable"

        asyncio.run(scenario())

    def test_many_async_clients(self, server):
        async def one_client(slot: int) -> int:
            async with await AsyncReproClient.connect(
                server.host, server.port
            ) as client:
                total = 0
                for _ in range(5):
                    result = await client.sql("SELECT COUNT(*) AS n FROM t")
                    total += result.scalar()
                return total

        async def scenario() -> list[int]:
            return await asyncio.gather(*(one_client(i) for i in range(6)))

        totals = asyncio.run(scenario())
        assert totals == [15] * 6


class TestMemoryEngineServer:
    def test_reads_serialize_through_writer_queue(self):
        db = repro.connect()
        db.sql("CREATE TABLE t (c BIGINT)")
        db.sql("INSERT INTO t VALUES (1), (2)")
        with ServerThread(db) as server:
            with ServerClient(server.host, server.port) as client:
                assert client.server_info["snapshot_reads"] is False
                assert client.sql("SELECT COUNT(*) AS n FROM t").scalar() == 2
                client.sql("INSERT INTO t VALUES (3)")
                assert client.sql("SELECT COUNT(*) AS n FROM t").scalar() == 3


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

    def test_server_metrics_namespaces(self, server, durable):
        with ServerClient(server.host, server.port) as client:
            client.sql("SELECT COUNT(*) AS n FROM t")
        assert durable.obs.counter("server.connections.total").value >= 1
        assert durable.obs.counter("server.requests.sql").value >= 1
        assert durable.obs.counter("session.opened").value >= 1
