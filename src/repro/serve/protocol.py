"""Length-prefixed wire protocol shared by server and clients.

A connection is a stream of *frames*: a 4-byte big-endian unsigned
length, then exactly that many bytes of *body*.  There are two kinds of
body, told apart by the first byte.

A **JSON body** starts with ``{`` and is one UTF-8 JSON object.  Every
request, acknowledgement and error is one::

    +--------------+----------------------------+
    | length (>I)  | {"op": "sql", "text": ...} |
    +--------------+----------------------------+

A **result body** carries a :class:`~repro.exec.result.QueryResult`.
It starts with :data:`RESULT_MAGIC` and puts a JSON *header* in front
of a binary *tail*::

    +--------------+-------+-----------------+-------------+-----+------+
    | length (>I)  | magic | header len (>I) | header JSON | pad | tail |
    +--------------+-------+-----------------+-------------+-----+------+
                   0       4                 8                   ^ 8-aligned

The header is the response object ``{"result": {"schema", "row_count",
"profile", "columns"}}``.  A STRING column sits in it as a JSON list
(``null`` for NULL).  An INT64 / FLOAT64 / DATE / BOOL column is a
descriptor ``{"dtype", "offset", "nbytes", "validity_offset"}``: its
values are ``nbytes`` of contiguous little-endian ``dtype`` (``<i8``,
``<f8`` or ``|b1``) at ``offset`` in the tail, and — only when the
column has NULLs — a bitmap of ``ceil(row_count / 8)`` bytes at
``validity_offset``, bit ``i % 8`` of byte ``i // 8`` set when row
``i`` is present.  Offsets count from the start of the tail and are
multiples of 8, as is the tail's own offset in the body, so every
column is an aligned :func:`numpy.frombuffer` view over the received
body: no value is copied or boxed on either side, and the values under
a NULL cross as they are.

Requests carry an ``op`` (see :data:`OPS`).  Every statement —
``EXPLAIN`` and ``CHECKPOINT`` included — is one ``sql`` request
(``{"op": "sql", "text", "profile"}``); the other ops read the
server's state or manage the connection.  Responses either carry the
op's payload (``{"result": ...}``, ``{"text": ...}``, …) or an
``{"error": {"type", "message"}}`` object, where ``type`` is the
:mod:`repro.errors` class name so clients re-raise the same typed
exception they would have seen locally.  ``hello`` answers with the
server's :data:`WIRE_VERSION`; a client refuses any other.

Frames above :data:`MAX_FRAME_BYTES` are rejected with a
:class:`~repro.errors.ProtocolError` before any allocation, on the way
in (a malicious or corrupt length prefix) and on the way out (a result
too large to send is sized from its parts, never assembled).
"""

from __future__ import annotations

import json
import socket
import struct

import numpy as np

from repro.errors import ConnectionClosedError, ProtocolError, ReproError
from repro.storage.column import ColumnVector
from repro.types import DataType

#: Default TCP port of ``python -m repro serve`` ("RP" on a phone pad).
DEFAULT_PORT = 7376

#: Upper bound on one frame's payload (64 MiB).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Version of the frame layout and op set above, reported by ``hello``.
WIRE_VERSION = 3

#: First bytes of a result body; the first is not ``{`` and not ASCII.
RESULT_MAGIC = b"\x93RPR"

#: Request operations the server understands.
OPS = ("hello", "ping", "sql", "describe", "metrics", "cache_stats", "close")

_LENGTH = struct.Struct(">I")

#: Magic + header length: where a result body's header starts.
_PREAMBLE_BYTES = len(RESULT_MAGIC) + _LENGTH.size

#: Alignment of the tail in the body and of every buffer in the tail.
_ALIGN = 8

#: How each fixed-width logical type crosses the wire.
_WIRE_DTYPE_OF = {
    DataType.INT64: np.dtype("<i8"),
    DataType.DATE: np.dtype("<i8"),
    DataType.FLOAT64: np.dtype("<f8"),
    DataType.BOOL: np.dtype(np.bool_),
}

#: Descriptor ``dtype`` tags and the buffers they name.
_WIRE_DTYPES = {dtype.str: dtype for dtype in _WIRE_DTYPE_OF.values()}

#: Compact JSON, built once: ``json.dumps`` with separators makes a new
#: encoder per call, which a one-row reply can measure.
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def _padding(size: int) -> int:
    return -size % _ALIGN


def frame_parts(payload: dict) -> list[bytes | memoryview]:
    """One wire frame as the buffers to write, in order, none joined.

    The first part is the length prefix and everything up to the tail;
    the rest are the column buffers of ``payload["result"]`` (see
    :func:`result_to_wire`) and their padding, still backed by the
    result's own arrays.  A payload without such columns is one part.
    """
    tail: list[bytes | memoryview] = []
    tail_bytes = 0

    def place(array: np.ndarray) -> int:
        nonlocal tail_bytes
        offset = tail_bytes
        if array.nbytes:
            tail.append(memoryview(array.view(np.uint8)))
            pad = _padding(array.nbytes)
            if pad:
                tail.append(bytes(pad))
            tail_bytes += array.nbytes + pad
        return offset

    result = payload.get("result")
    columns = result.get("columns") if isinstance(result, dict) else None
    hoisted = {}
    if isinstance(columns, dict):
        for name, column in columns.items():
            if isinstance(column, dict):
                values, validity = column["values"], column["validity"]
                hoisted[name] = {
                    "dtype": values.dtype.str,
                    "offset": place(values),
                    "nbytes": values.nbytes,
                    "validity_offset": (
                        None if validity is None else place(validity)
                    ),
                }
    if hoisted:
        payload = {
            **payload,
            "result": {**result, "columns": {**columns, **hoisted}},
        }
    header = _encode_json(payload).encode("utf-8")
    if hoisted:
        header = b"".join(
            (
                RESULT_MAGIC,
                _LENGTH.pack(len(header)),
                header,
                bytes(_padding(_PREAMBLE_BYTES + len(header))),
            )
        )
    size = len(header) + tail_bytes
    if size > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {size} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return [_LENGTH.pack(size) + header, *tail]


def encode_frame(payload: dict) -> bytes:
    """One wire frame as one ``bytes`` (see :func:`frame_parts`)."""
    return b"".join(frame_parts(payload))


def _decode_json(text: bytes | bytearray | memoryview) -> dict:
    try:
        payload = json.loads(str(text, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    return payload


def _is_count(value: object) -> bool:
    return type(value) is int and value >= 0


def _tail_view(
    tail: memoryview, what: str, offset: object, nbytes: int
) -> memoryview:
    """``tail[offset : offset + nbytes]`` once both are proven sane."""
    if not _is_count(offset) or offset % _ALIGN:
        raise ProtocolError(
            f"{what} offset {offset!r} is not a multiple of {_ALIGN}"
        )
    if offset + nbytes > len(tail):
        raise ProtocolError(
            f"{what} [{offset}, {offset + nbytes}) runs past the "
            f"{len(tail)}-byte tail"
        )
    return tail[offset : offset + nbytes]


def _column_views(
    name: str, descriptor: dict, tail: memoryview, row_count: int
) -> dict:
    """The arrays a column descriptor names, as views over *tail*."""
    tag = descriptor.get("dtype")
    dtype = _WIRE_DTYPES.get(tag) if isinstance(tag, str) else None
    if dtype is None:
        raise ProtocolError(f"column {name!r}: unknown dtype tag {tag!r}")
    nbytes = descriptor.get("nbytes")
    if not _is_count(nbytes) or nbytes != row_count * dtype.itemsize:
        raise ProtocolError(
            f"column {name!r}: nbytes {nbytes!r} is not {row_count} rows "
            f"of {dtype.itemsize}-byte {tag}"
        )
    values = _tail_view(
        tail, f"column {name!r} values", descriptor.get("offset"), nbytes
    )
    validity = None
    if descriptor.get("validity_offset") is not None:
        validity = np.frombuffer(
            _tail_view(
                tail,
                f"column {name!r} validity",
                descriptor["validity_offset"],
                (row_count + 7) // 8,
            ),
            dtype=np.uint8,
        )
    return {"values": np.frombuffer(values, dtype=dtype), "validity": validity}


def decode_body(body: bytes | bytearray | memoryview) -> dict:
    """Parse one frame body; raises ProtocolError on garbage.

    In a result body every column descriptor is replaced by read-only
    array views over *body* (the shape :func:`result_to_wire` produced),
    each checked against the body's bounds and the header's row count.
    """
    if body[:1] == b"{":
        return _decode_json(body)
    view = memoryview(body).toreadonly()
    if (
        len(view) < _PREAMBLE_BYTES
        or view[: len(RESULT_MAGIC)] != RESULT_MAGIC
    ):
        raise ProtocolError(
            "frame body is neither a JSON object nor a result body"
        )
    (header_bytes,) = _LENGTH.unpack_from(view, len(RESULT_MAGIC))
    header_end = _PREAMBLE_BYTES + header_bytes
    if header_end > len(view):
        raise ProtocolError(
            f"result header of {header_bytes} bytes runs past the "
            f"{len(view)}-byte body"
        )
    payload = _decode_json(view[_PREAMBLE_BYTES:header_end])
    tail = view[header_end + _padding(header_end) :]
    result = payload.get("result")
    if not isinstance(result, dict):
        raise ProtocolError("result body without a 'result' object")
    row_count, columns = result.get("row_count"), result.get("columns")
    if not _is_count(row_count) or not isinstance(columns, dict):
        raise ProtocolError(
            "result header needs a non-negative 'row_count' and a "
            "'columns' object"
        )
    for name, column in columns.items():
        if isinstance(column, dict):
            columns[name] = _column_views(name, column, tail, row_count)
    return payload


def _receive(
    sock: socket.socket, count: int, what: str, *, at_boundary: bool = False
) -> bytearray | None:
    """*count* bytes of a frame's *what*, received in place.

    EOF before the first byte is ``None`` *at_boundary* (between
    frames); anywhere else it means the peer died mid-send.
    """
    data = bytearray(count)
    view = memoryview(data)
    received = 0
    while received < count:
        got = sock.recv_into(view[received:])
        if not got:
            if at_boundary and not received:
                return None
            raise ProtocolError(
                f"connection closed inside a frame {what} "
                f"({received}/{count} bytes)"
            )
        received += got
    return data


def read_frame(sock: socket.socket) -> dict | None:
    """Read one frame off a blocking socket — the one reader both the
    server and the client use; ``None`` on clean EOF at a frame boundary.

    EOF *inside* a frame (a truncated prefix or body) raises
    :class:`ProtocolError` — the peer died mid-send and the stream
    cannot be resynchronized.
    """
    prefix = _receive(sock, _LENGTH.size, "length prefix", at_boundary=True)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length == 0 or length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} outside (0, {MAX_FRAME_BYTES}]"
        )
    return decode_body(_receive(sock, length, "body"))


# -- error transport ----------------------------------------------------------


def error_to_wire(error: BaseException) -> dict:
    """Response payload carrying a typed error."""
    return {
        "error": {
            "type": type(error).__name__,
            "message": str(error),
        }
    }


def error_from_wire(payload: dict) -> ReproError:
    """Rebuild the typed exception of an ``{"error": ...}`` response.

    The class is looked up by name in :mod:`repro.errors`; unknown (or
    non-Repro) types degrade to the :class:`ReproError` base so clients
    always get the library's exception hierarchy.
    """
    from repro import errors as errors_module

    detail = payload.get("error")
    if not isinstance(detail, dict):
        raise ProtocolError(f"malformed error response: {payload!r}")
    message = str(detail.get("message", "unknown server error"))
    type_name = detail.get("type", "ReproError")
    cls = getattr(errors_module, str(type_name), None)
    if (
        isinstance(cls, type)
        and issubclass(cls, ReproError)
        and cls not in (errors_module.ThresholdExceededError,
                        errors_module.PlanInvariantError,
                        errors_module.SqlSyntaxError)
    ):
        return cls(message)
    # Errors with structured constructors (or unknown names) carry
    # their full story in the message already.
    return ReproError(f"{type_name}: {message}")


# -- result transport ---------------------------------------------------------


def result_to_wire(result) -> dict:
    """A QueryResult as the response object :func:`frame_parts` sends.

    STRING columns become lists of ``str`` / ``None``.  Every other
    column becomes ``{"values", "validity"}``: its values as a
    contiguous little-endian array (the column's own array when it
    already is one) and its validity mask packed to a bitmap, or
    ``None`` when it has no NULLs.
    """
    from repro.storage.database import schema_to_payload

    columns: dict[str, list | dict] = {}
    for name in result.column_names:
        column = result.columns[name]
        validity = column.validity
        if column.dtype is DataType.STRING:
            strings = column.values.tolist()
            if validity is not None:
                for position in np.flatnonzero(~validity):
                    strings[position] = None
            columns[name] = strings
        else:
            columns[name] = {
                "values": np.ascontiguousarray(
                    column.values, dtype=_WIRE_DTYPE_OF[column.dtype]
                ),
                "validity": (
                    None
                    if validity is None
                    else np.packbits(validity, bitorder="little")
                ),
            }
    profile = getattr(result, "profile", None)
    return {
        "schema": schema_to_payload(result.schema),
        "columns": columns,
        "row_count": result.row_count,
        "profile": profile.to_text() if profile is not None else None,
    }


def result_from_wire(payload: dict):
    """Rebuild a QueryResult from :func:`result_to_wire` output, or from
    what :func:`decode_body` made of it on the far side of a socket."""
    from repro.exec.result import QueryResult
    from repro.storage.database import payload_to_schema

    try:
        schema = payload_to_schema(payload["schema"])
        row_count = payload["row_count"]
        columns = {}
        for field in schema:
            column = payload["columns"][field.name]
            buffers = isinstance(column, dict)
            if buffers == (field.dtype is DataType.STRING):
                raise ProtocolError(
                    f"column {field.name!r}: {field.dtype.name} sent as "
                    f"{'buffers' if buffers else 'JSON'}"
                )
            if field.dtype is DataType.STRING:
                vector = ColumnVector.from_pylist(field.dtype, column)
            else:
                validity = column["validity"]
                if validity is not None:
                    validity = np.unpackbits(
                        validity, count=row_count, bitorder="little"
                    ).view(np.bool_)
                vector = ColumnVector(field.dtype, column["values"], validity)
            if len(vector) != row_count:
                raise ProtocolError(
                    f"column {field.name!r} has {len(vector)} rows, "
                    f"header says {row_count}"
                )
            columns[field.name] = vector
    except ProtocolError:
        raise
    except (
        KeyError, TypeError, ValueError, AttributeError, ReproError
    ) as exc:
        raise ProtocolError(f"malformed result payload: {exc!r}") from exc
    result = QueryResult(schema, columns)
    profile_text = payload.get("profile")
    if profile_text is not None:
        result.profile = RemoteProfile(profile_text)
    return result


class RemoteProfile:
    """Render-only stand-in for a QueryProfile on the client side.

    Profiles are aggregated server-side; what crosses the wire is the
    rendered text, which is all ``--profile`` consumers (the REPL, the
    examples) read back out.
    """

    def __init__(self, text: str):
        self._text = text

    def to_text(self) -> str:
        return self._text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteProfile({len(self._text)} chars)"


def check_wire_version(server_info: dict) -> dict:
    """Pass a ``hello`` response through if its server frames results
    the way this module does; anything else would be misread."""
    version = server_info.get("wire_version")
    if version != WIRE_VERSION:
        raise ProtocolError(
            f"server speaks wire version {version!r}, this client "
            f"{WIRE_VERSION}"
        )
    return server_info


def check_response(payload: dict | None) -> dict:
    """Raise the typed error of an error response; pass others through."""
    if payload is None:
        raise ConnectionClosedError(
            "server closed the connection before replying"
        )
    if "error" in payload:
        raise error_from_wire(payload)
    return payload
