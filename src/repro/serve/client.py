"""The client for the repro wire protocol.

:class:`ServerClient` is synchronous, built on a plain socket.  It is
what ``repro.connect("repro://host:port")`` returns; it mirrors the
:class:`~repro.storage.database.Database` surface the REPL and
examples use (``sql`` / ``explain`` / ``describe`` / ``metrics`` /
``cache_stats`` / ``checkpoint`` / ``parallelism``), so remote and
local handles are interchangeable for read/write workloads.  For
concurrency, use one client per thread.

It returns full :class:`~repro.exec.result.QueryResult` objects rebuilt
from the wire (fixed-width columns are read-only views over the
received frame, DB-API cursor surface included) and re-raises server
errors as their original :mod:`repro.errors` types.
"""

from __future__ import annotations

import socket

from repro.check.sanitize import make_lock
from repro.errors import ConnectionClosedError, ProtocolError
from repro.exec.result import QueryResult
from repro.serve.protocol import (
    DEFAULT_PORT,
    check_response,
    check_wire_version,
    encode_frame,
    read_frame,
    result_from_wire,
)


def parse_uri(uri: str) -> tuple[str, int]:
    """Split ``repro://host[:port]`` into (host, port)."""
    prefix = "repro://"
    if not uri.startswith(prefix):
        raise ProtocolError(f"not a repro:// URI: {uri!r}")
    authority = uri[len(prefix):].rstrip("/")
    if not authority:
        raise ProtocolError(f"URI {uri!r} is missing a host")
    host, _, port_text = authority.rpartition(":")
    if not host:
        return authority, DEFAULT_PORT
    try:
        return host, int(port_text)
    except ValueError as exc:
        raise ProtocolError(
            f"invalid port {port_text!r} in URI {uri!r}"
        ) from exc


class RemoteMetrics:
    """Rendered metrics of a remote database (text + JSON forms)."""

    def __init__(self, text: str, json_text: str):
        self._text = text
        self._json = json_text

    def to_text(self) -> str:
        return self._text

    def to_json(self, indent: int | None = 2) -> str:
        del indent  # rendered server-side
        return self._json

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteMetrics({len(self._text)} chars)"


class ServerClient:
    """A synchronous connection to a :class:`~repro.serve.ReproServer`.

    One request/response in flight at a time (a lock serializes
    callers); the server interleaves *across* connections, not within
    one.  Use one client per thread for concurrency.
    """

    def __init__(self, host: str, port: int = DEFAULT_PORT, *, timeout: float | None = None):
        self.host = host
        self.port = port
        self._lock = make_lock("serve.client.request")
        self._closed = False
        self._parallelism: int | None = None
        self._socket = socket.create_connection((host, port), timeout=timeout)
        try:
            self.server_info = check_wire_version(self._call({"op": "hello"}))
        except ProtocolError:
            self._socket.close()
            raise

    @classmethod
    def from_uri(cls, uri: str, *, timeout: float | None = None) -> "ServerClient":
        host, port = parse_uri(uri)
        return cls(host, port, timeout=timeout)

    # -- framing ------------------------------------------------------------

    def _request(self, payload: dict) -> dict | None:
        with self._lock:  # lock-ok: the lock serializes one request/response conversation on the socket; blocking inside it is the design
            if self._closed:
                raise ConnectionClosedError("client is closed")
            try:
                self._socket.sendall(encode_frame(payload))
                return read_frame(self._socket)
            except ProtocolError:
                # A bad or truncated frame cannot be resynchronized.
                self._teardown_locked()
                raise
            except OSError:
                self._teardown_locked()
                raise ConnectionClosedError(
                    f"connection to {self.host}:{self.port} lost"
                ) from None

    def _call(self, payload: dict) -> dict:
        return check_response(self._request(payload))

    # -- the Database-shaped surface ----------------------------------------

    def sql(
        self,
        text: str,
        *,
        parallelism: int | None = None,
        profile: bool = False,
        optimizer_options=None,
    ) -> QueryResult:
        """Execute one statement on the server; returns a QueryResult."""
        if optimizer_options is not None:
            raise ProtocolError(
                "optimizer_options do not travel over the wire; set "
                "planner behaviour server-side"
            )
        response = self._call(
            {
                "op": "sql",
                "text": text,
                "parallelism": parallelism,
                "profile": profile,
            }
        )
        return result_from_wire(response["result"])

    def explain(
        self,
        text: str,
        *,
        parallelism: int | None = None,
        analyze: bool = False,
        optimizer_options=None,
    ) -> str:
        if optimizer_options is not None:
            raise ProtocolError(
                "optimizer_options do not travel over the wire; set "
                "planner behaviour server-side"
            )
        response = self._call(
            {
                "op": "explain",
                "text": text,
                "parallelism": parallelism,
                "analyze": analyze,
            }
        )
        return response["text"]

    def set(self, knob: str, value) -> object:
        """Set a server-side session knob; returns the applied value."""
        response = self._call({"op": "set", "knob": knob, "value": value})
        return response["value"]

    @property
    def parallelism(self) -> int | None:
        """Per-session degree of parallelism (mirrors Database.parallelism)."""
        with self._lock:
            return self._parallelism

    @parallelism.setter
    def parallelism(self, value: int | None) -> None:
        applied = self.set("parallelism", value)
        with self._lock:
            self._parallelism = applied

    def describe(self) -> str:
        return self._call({"op": "describe"})["text"]

    def metrics(self, *, refresh: bool = True) -> RemoteMetrics:
        del refresh  # the server always refreshes before rendering
        response = self._call({"op": "metrics"})
        return RemoteMetrics(response["text"], response["json"])

    def cache_stats(self) -> dict | None:
        return self._call({"op": "cache_stats"})["stats"]

    def checkpoint(self) -> dict:
        return self._call({"op": "checkpoint"})["result"]

    def ping(self) -> bool:
        return bool(self._call({"op": "ping"}).get("ok"))

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Say goodbye and close the socket (idempotent)."""
        with self._lock:  # lock-ok: goodbye shares the request lock's socket-serialization design
            if self._closed:
                return
            try:
                self._socket.sendall(encode_frame({"op": "close"}))
                read_frame(self._socket)
            except (OSError, ProtocolError):
                pass
            self._teardown_locked()

    def _teardown_locked(self) -> None:
        self._closed = True
        try:
            self._socket.close()
        except OSError:  # pragma: no cover - defensive
            pass

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            state = "closed" if self._closed else "open"
        return f"ServerClient({self.host}:{self.port}, {state})"
