"""The result wire format: round trips, hostile frames, served replies.

A result crosses the wire as a JSON header plus a tail of raw column
buffers (``repro.serve.protocol``).  These tests pin the contract from
the outside: whatever ``result_to_wire`` / ``encode_frame`` accept comes
back from ``decode_body`` / ``result_from_wire`` bit for bit; a frame
that lies about its own layout raises ``ProtocolError`` and nothing
else; a client on another thread agrees with one on this; and the
server sizes a reply before it writes one.
"""

from __future__ import annotations

import json
import random
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import ProtocolError
from repro.exec.result import QueryResult
from repro.serve import ServerClient, ServerThread
from repro.serve import protocol, server as server_module
from repro.serve.protocol import (
    RESULT_MAGIC,
    WIRE_VERSION,
    decode_body,
    encode_frame,
    frame_parts,
    result_from_wire,
    result_to_wire,
)
from repro.storage.column import ColumnVector
from repro.storage.schema import Field, Schema
from repro.types import DataType
from repro.types.datatypes import numpy_dtype


def round_trip(result: QueryResult) -> QueryResult:
    """The four calls a reply goes through, as ``bench_e2e`` makes them."""
    frame = encode_frame({"result": result_to_wire(result)})
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    return result_from_wire(decode_body(frame[4:])["result"])


def assert_same_result(actual: QueryResult, expected: QueryResult) -> None:
    assert actual.schema.names == expected.schema.names
    assert actual.row_count == expected.row_count
    for got, want in zip(actual.schema, expected.schema):
        assert (got.dtype, got.nullable) == (want.dtype, want.nullable)
        mine, theirs = actual.columns[got.name], expected.columns[got.name]
        if theirs.validity is None:
            assert mine.validity is None
        else:
            assert np.array_equal(mine.validity, theirs.validity)
        if got.dtype is DataType.STRING:
            assert mine.to_pylist() == theirs.to_pylist()
        else:
            # Bit for bit, NaN payloads, -0.0 and the values under a
            # NULL included.
            assert mine.values.dtype == theirs.values.dtype
            assert mine.values.tobytes() == theirs.values.tobytes()


# -- generated results --------------------------------------------------------

_SPECIAL_FLOATS = [
    0.0, -0.0, float("inf"), float("-inf"), float("nan"),
    # A NaN with a payload: only a bit-exact transport keeps it.
    struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_DEAD_BEEF))[0],
    5e-324, 1.7976931348623157e308,
]

_VALUES = {
    DataType.INT64: st.integers(-(2**63), 2**63 - 1),
    DataType.DATE: st.integers(-800_000, 800_000),
    DataType.FLOAT64: st.sampled_from(_SPECIAL_FLOATS)
    | st.floats(allow_nan=True, allow_infinity=True),
    DataType.BOOL: st.booleans(),
    DataType.STRING: st.text(max_size=12),
}


def _as_array(draw, dtype: DataType, items: list) -> np.ndarray:
    """*items* as a column array: contiguous or strided, maybe read-only."""
    physical = numpy_dtype(dtype)
    if dtype is DataType.FLOAT64:
        # np.array() may quiet a signalling NaN; copy the bits instead.
        dense = np.array(
            [struct.unpack("<q", struct.pack("<d", item))[0] for item in items],
            dtype=np.int64,
        ).view(np.float64)
    else:
        dense = np.empty(len(items), dtype=physical)
        dense[:] = items
    if draw(st.booleans()):
        spaced = np.empty(2 * len(items), dtype=physical)
        spaced[::2] = dense
        dense = spaced[::2]
        assert not dense.flags.c_contiguous or len(items) < 2
    if draw(st.booleans()):
        dense.flags.writeable = False
    return dense


@st.composite
def results(draw) -> QueryResult:
    rows = draw(st.sampled_from([0, 0, 1, 2, 7, 8, 9, 64, 65]))
    dtypes = draw(
        st.lists(st.sampled_from(list(DataType)), min_size=1, max_size=6)
    )
    fields, columns = [], {}
    for position, dtype in enumerate(dtypes):
        name = f"c{position}_é"
        items = draw(st.lists(_VALUES[dtype], min_size=rows, max_size=rows))
        nulls = draw(st.sampled_from(["none", "some", "all"]))
        validity = None
        if rows and nulls == "all":
            validity = np.zeros(rows, dtype=np.bool_)
        elif rows and nulls == "some":
            validity = np.array(
                draw(st.lists(st.booleans(), min_size=rows, max_size=rows)),
                dtype=np.bool_,
            )
        fields.append(Field(name, dtype, nullable=draw(st.booleans())))
        columns[name] = ColumnVector(
            dtype, _as_array(draw, dtype, items), validity
        )
    return QueryResult(Schema(fields), columns)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(results())
    def test_every_type_and_null_shape_survives(self, result):
        rebuilt = round_trip(result)
        assert_same_result(rebuilt, result)
        for field in rebuilt.schema:
            if field.dtype is not DataType.STRING:
                assert not rebuilt.columns[field.name].values.flags.writeable

    def test_null_free_column_keeps_validity_none(self):
        column = ColumnVector(DataType.INT64, np.arange(5, dtype=np.int64))
        result = QueryResult(Schema([Field("k", DataType.INT64)]), {"k": column})
        rebuilt = round_trip(result)
        assert rebuilt.columns["k"].validity is None
        assert np.array_equal(rebuilt.columns["k"].values, column.values)

    def test_decoded_columns_are_views_over_the_body(self):
        column = ColumnVector(DataType.INT64, np.arange(1000, dtype=np.int64))
        result = QueryResult(Schema([Field("k", DataType.INT64)]), {"k": column})
        body = encode_frame({"result": result_to_wire(result)})[4:]
        values = decode_body(body)["result"]["columns"]["k"]["values"]
        assert np.shares_memory(values, np.frombuffer(body, dtype=np.uint8))
        assert values.ctypes.data % 8 == 0

    def test_frame_parts_borrow_the_result_arrays(self):
        column = ColumnVector(DataType.INT64, np.arange(1000, dtype=np.int64))
        result = QueryResult(Schema([Field("k", DataType.INT64)]), {"k": column})
        head, *tail = frame_parts({"result": result_to_wire(result)})
        assert isinstance(head, bytes) and len(tail) == 1
        assert np.shares_memory(
            np.frombuffer(tail[0], dtype=np.uint8), column.values
        )

    def test_dml_acknowledgement_is_a_plain_json_frame(self):
        result = QueryResult.message("3 rows inserted")
        frame = encode_frame({"result": result_to_wire(result)})
        assert frame[4:5] == b"{"
        assert json.loads(frame[4:])["result"]["columns"] == {
            "status": ["3 rows inserted"]
        }
        assert_same_result(round_trip(result), result)

    def test_non_result_payloads_stay_json(self):
        frame = encode_frame({"op": "sql", "text": "SELECT 1"})
        assert decode_body(frame[4:]) == {"op": "sql", "text": "SELECT 1"}
        # The checkpoint op also answers under "result", with a dict.
        info = {"result": {"engine": "durable", "columns": {"a": 1}}}
        assert decode_body(encode_frame(info)[4:]) == info

    def test_profiled_result_carries_its_rendered_profile(self):
        db = repro.connect()
        db.sql("CREATE TABLE t (c BIGINT)")
        db.sql("INSERT INTO t VALUES (1), (2), (2)")
        result = db.sql("SELECT COUNT(*) AS n FROM t", profile=True)
        rebuilt = round_trip(result)
        assert rebuilt.scalar() == 3
        assert rebuilt.profile.to_text() == result.profile.to_text()

    def test_oversized_frame_is_sized_not_assembled(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
        column = ColumnVector(DataType.INT64, np.arange(1000, dtype=np.int64))
        result = QueryResult(Schema([Field("k", DataType.INT64)]), {"k": column})
        with pytest.raises(ProtocolError, match="exceeds the 4096-byte limit"):
            frame_parts({"result": result_to_wire(result)})


# -- hostile result bodies ----------------------------------------------------


def result_body(header: dict, tail: bytes = b"", *, header_bytes=None) -> bytes:
    """A result body assembled by hand, lies and all."""
    text = json.dumps(header).encode("utf-8")
    claimed = len(text) if header_bytes is None else header_bytes
    body = RESULT_MAGIC + struct.pack(">I", claimed) + text
    return body + bytes(-len(body) % 8) + tail


def int_column_header(rows: int = 4, **descriptor) -> dict:
    column = {
        "dtype": "<i8", "offset": 0, "nbytes": 8 * rows,
        "validity_offset": None, **descriptor,
    }
    return {
        "result": {
            "schema": [{"name": "k", "dtype": "int64", "nullable": True}],
            "columns": {"k": column},
            "row_count": rows,
            "profile": None,
        }
    }


TAIL = np.arange(8, dtype="<i8").tobytes()  # 64 bytes


class TestDecodeHardening:
    def test_the_honest_frame_decodes(self):
        payload = decode_body(result_body(int_column_header(), TAIL))
        assert result_from_wire(payload["result"]).columns["k"].to_pylist() == [
            0, 1, 2, 3,
        ]

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param(b"", id="empty"),
            pytest.param(b"\xff\xfe not json", id="neither-kind"),
            pytest.param(RESULT_MAGIC + b"\x00\x00", id="short-preamble"),
            pytest.param(
                result_body(int_column_header(), TAIL, header_bytes=10**6),
                id="header-length-past-body",
            ),
            pytest.param(
                result_body(int_column_header(), TAIL, header_bytes=7),
                id="header-length-cuts-json",
            ),
            pytest.param(
                result_body(int_column_header(offset=64), TAIL),
                id="offset-past-body",
            ),
            pytest.param(
                result_body(int_column_header(rows=9), TAIL),
                id="nbytes-past-body",
            ),
            pytest.param(
                result_body(int_column_header(nbytes=30), TAIL),
                id="nbytes-not-multiple-of-itemsize",
            ),
            pytest.param(
                result_body(int_column_header(nbytes=24), TAIL),
                id="nbytes-disagrees-with-row-count",
            ),
            pytest.param(
                result_body(int_column_header(dtype="<i4"), TAIL),
                id="unknown-dtype-tag",
            ),
            pytest.param(
                result_body(int_column_header(dtype=["<i8"]), TAIL),
                id="unhashable-dtype-tag",
            ),
            pytest.param(
                result_body(int_column_header(offset=4), TAIL),
                id="misaligned-offset",
            ),
            pytest.param(
                result_body(int_column_header(offset=-8), TAIL),
                id="negative-offset",
            ),
            pytest.param(
                result_body(int_column_header(offset=8.0), TAIL),
                id="float-offset",
            ),
            pytest.param(
                result_body(int_column_header(offset=True), TAIL),
                id="bool-offset",
            ),
            pytest.param(
                result_body(int_column_header(validity_offset=64), TAIL),
                id="validity-past-body",
            ),
            pytest.param(
                result_body(int_column_header(validity_offset=3), TAIL),
                id="validity-misaligned",
            ),
            pytest.param(
                result_body(int_column_header(rows=-1), TAIL),
                id="negative-row-count",
            ),
            pytest.param(
                result_body({"result": [1, 2]}, TAIL), id="result-not-object"
            ),
            pytest.param(
                result_body({"result": {"row_count": 1, "columns": []}}, TAIL),
                id="columns-not-object",
            ),
            pytest.param(result_body({"ok": True}), id="no-result"),
        ],
    )
    def test_lying_frames_raise_protocol_error(self, body):
        with pytest.raises(ProtocolError):
            decode_body(body)

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(
                lambda r: r["schema"][0].update(dtype="float64"),
                id="schema-disagrees-with-buffer-dtype",
            ),
            pytest.param(
                lambda r: r["schema"][0].update(dtype="string"),
                id="string-field-sent-as-buffers",
            ),
            pytest.param(
                lambda r: r["columns"].update(k=[1, 2, 3, 4]),
                id="fixed-width-field-sent-as-json",
            ),
            pytest.param(
                lambda r: r["schema"][0].update(dtype="int65"),
                id="unknown-schema-dtype",
            ),
            pytest.param(
                lambda r: r["schema"][0].update(name="other"),
                id="column-missing",
            ),
            pytest.param(lambda r: r.update(schema=7), id="schema-not-a-list"),
            pytest.param(
                lambda r: r.update(schema=[["k", "int64"]]),
                id="schema-entry-not-an-object",
            ),
        ],
    )
    def test_inconsistent_results_raise_protocol_error(self, mutate):
        header = int_column_header()
        mutate(header["result"])
        with pytest.raises(ProtocolError):
            result_from_wire(decode_body(result_body(header, TAIL))["result"])

    def test_string_column_of_the_wrong_length(self):
        header = {
            "result": {
                "schema": [{"name": "s", "dtype": "string", "nullable": True}],
                "columns": {"s": ["a", None]},
                "row_count": 3,
                "profile": None,
            }
        }
        with pytest.raises(ProtocolError, match="2 rows"):
            result_from_wire(decode_body(json.dumps(header).encode())["result"])

    def test_fuzzed_frames_only_ever_raise_protocol_error(self):
        """Truncations and bit flips of valid frames, seeded: a decode
        either succeeds or raises the typed error — never ValueError,
        IndexError, struct.error or a numpy complaint."""
        db = repro.connect()
        db.sql("CREATE TABLE t (k BIGINT, f DOUBLE, s VARCHAR, d DATE, b BOOLEAN)")
        db.sql(
            "INSERT INTO t VALUES "
            "(1, 1.5, 'α', DATE '2020-01-02', TRUE), "
            "(NULL, NULL, NULL, NULL, NULL), "
            "(3, -0.0, 'z', DATE '1969-12-31', FALSE)"
        )
        bodies = [
            encode_frame({"result": result_to_wire(db.sql(text))})[4:]
            for text in (
                "SELECT * FROM t",
                "SELECT k, b FROM t WHERE k > 100",
                "SELECT COUNT(*) AS n FROM t",
                "INSERT INTO t VALUES (4, 4.0, 'q', DATE '2021-01-01', TRUE)",
            )
        ]
        rng = random.Random(20260927)
        outcomes = {"ok": 0, "rejected": 0}
        for body in bodies:
            mutants = [body[:cut] for cut in range(len(body))]
            for _ in range(1500):
                flipped = bytearray(body)
                for _ in range(rng.choice((1, 1, 1, 2, 4))):
                    position = rng.randrange(len(flipped))
                    flipped[position] ^= 1 << rng.randrange(8)
                mutants.append(bytes(flipped))
            for mutant in mutants:
                try:
                    result_from_wire(decode_body(mutant).get("result"))
                except ProtocolError:
                    outcomes["rejected"] += 1
                else:
                    outcomes["ok"] += 1
        # Flips inside the tail change values, not structure, so some
        # mutants decode; most of the corpus must have been refused.
        assert outcomes["rejected"] > outcomes["ok"] > 0


# -- over the socket ----------------------------------------------------------


@pytest.fixture
def durable(tmp_path):
    db = repro.connect(tmp_path / "data", parallelism=1)
    db.sql("CREATE TABLE t (k BIGINT, f DOUBLE, s VARCHAR(8), d DATE, b BOOLEAN)")
    db.sql(
        "INSERT INTO t VALUES "
        "(1, 1.5, 'α', DATE '2020-01-02', TRUE), "
        "(NULL, NULL, NULL, NULL, NULL), "
        "(3, -0.0, 'z', DATE '1969-12-31', FALSE)"
    )
    yield db
    db.close()


@pytest.fixture
def server(durable):
    with ServerThread(durable) as handle:
        yield handle


def fetch_async(server, text: str) -> QueryResult:
    """*text* through a second client on a thread of its own (where the
    asyncio client used to be driven from a coroutine)."""
    fetched: list[QueryResult] = []

    def scenario() -> None:
        with ServerClient(server.host, server.port) as client:
            fetched.append(client.sql(text))

    thread = threading.Thread(target=scenario)
    thread.start()
    thread.join(timeout=60)
    (result,) = fetched
    return result


class TestServedResults:
    @pytest.mark.parametrize(
        "text",
        [
            "SELECT k, f, s, d, b FROM t",
            "SELECT k FROM t WHERE k > 100",
            "SELECT COUNT(*) AS n FROM t",
        ],
    )
    def test_sync_and_async_clients_agree_with_the_engine(
        self, durable, server, text
    ):
        local = durable.sql(text)
        with ServerClient(server.host, server.port) as client:
            assert_same_result(client.sql(text), local)
        assert_same_result(fetch_async(server, text), local)

    def test_a_multi_part_reply_arrives_whole(self, durable, server):
        """Past the single-write size the server sends part by part."""
        rows = 40_000
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
        local = durable.sql("SELECT k, v FROM big")
        assert 16 * rows > server_module._SINGLE_WRITE_BYTES
        with ServerClient(server.host, server.port) as client:
            remote = client.sql("SELECT k, v FROM big")
            assert_same_result(remote, local)
            assert remote.columns["k"].validity is None
            assert client.ping() is True
        assert_same_result(fetch_async(server, "SELECT k, v FROM big"), local)

    def test_hello_reports_the_wire_version(self, server):
        with ServerClient(server.host, server.port) as client:
            assert client.server_info["wire_version"] == WIRE_VERSION

    def test_clients_refuse_another_wire_version(self, server, monkeypatch):
        monkeypatch.setattr(server_module, "WIRE_VERSION", WIRE_VERSION + 1)
        with pytest.raises(ProtocolError, match="wire version"):
            ServerClient(server.host, server.port)
        with pytest.raises(ProtocolError, match="wire version"):
            repro.connect(server.uri)
        # Each refusal closed its socket: the server is back to idle.
        deadline = time.monotonic() + 30
        while server.database.obs.gauge("server.connections.active").value:
            assert time.monotonic() < deadline
            time.sleep(0.005)

    def test_oversized_result_is_a_typed_error_on_an_open_connection(
        self, durable, server, monkeypatch
    ):
        with ServerClient(server.host, server.port) as client:
            errors = durable.obs.counter("server.errors").value
            monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 512)
            with pytest.raises(ProtocolError, match="exceeds the 512-byte"):
                client.sql("SELECT k, f, s, d, b FROM t")
            # Same connection, next statement: the server did not hang up.
            assert client.ping() is True
            assert client.sql("SELECT COUNT(*) AS n FROM t").scalar() == 3
        assert durable.obs.counter("server.errors").value == errors + 1
        assert (
            durable.obs.counter("server.errors.result_too_large").value == 1
        )

    def test_results_are_encoded_off_the_event_loop(
        self, durable, server, monkeypatch
    ):
        threads = []

        def recording(result):
            threads.append(threading.current_thread().name)
            return result_to_wire(result)

        monkeypatch.setattr(server_module, "result_to_wire", recording)
        with ServerClient(server.host, server.port) as client:
            client.sql("SELECT k FROM t")
            client.sql("INSERT INTO t (k) VALUES (9)")
        # A read on its connection's own thread, a write on the writer.
        assert threads == ["repro-conn", "repro-writer"]

    def test_each_reply_is_measured(self, durable, server):
        with ServerClient(server.host, server.port) as client:
            client.sql("SELECT k FROM t")
        sizes = durable.obs.histogram("server.response.bytes")
        seconds = durable.obs.histogram("server.result_encode.seconds")
        assert sizes.count == seconds.count == 1
        assert sizes.total > 4 + len(RESULT_MAGIC)
        assert 0 <= seconds.total < 1.0
