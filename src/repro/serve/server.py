"""The repro network server: many sessions, one Database.

:class:`ReproServer` is a blocking socket server with one concurrency
model, threads: an accept thread, **one thread per connection** and one
writer thread, all over one
:class:`~repro.storage.database.Database`.  Each connection gets its
own :class:`~repro.sql.session.Session` (opened with
``snapshot_reads=True``); its thread reads a frame, runs the statement
and writes the reply itself.  Statements are routed by
:func:`~repro.sql.session.statement_kind`:

- **reads** run on the connection's own thread, each against its own
  snapshot pin, on either engine — a read never observes half a write
  or a torn generation, and waits at most for one write's in-memory
  step (never for its fsync);
- **writes and checkpoints** are serialized through the single writer
  thread fed by a queue; the connection's thread waits on a
  :class:`concurrent.futures.Future`.  The writer drains the queue in
  batches and executes consecutive writes under one
  :meth:`~repro.storage.wal.WriteAheadLog.deferred_sync` scope — group
  commit: one fsync per batch instead of one per statement, which is
  where the throughput under concurrent write load comes from.

A statement's result is encoded by the thread that ran it.
Observability lands in the database's registry under the ``server.*``
namespace (connection counts, per-op request counters, write-queue
depth, result encode time and response size) next to the WAL's
``wal.group_commit.*`` batching metrics.

:class:`ServerThread` is the same server on an ephemeral port — the
shape tests and benchmarks construct.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import time
from concurrent.futures import Future
from functools import partial
from typing import TYPE_CHECKING

from repro.check.sanitize import make_lock
from repro.errors import ConnectionClosedError, ProtocolError
from repro.serve.protocol import (
    DEFAULT_PORT,
    OPS,
    WIRE_VERSION,
    error_to_wire,
    frame_parts,
    read_frame,
    result_to_wire,
)
from repro.sql.session import Session, statement_kind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.database import Database

#: Most write statements one group-commit batch will absorb.
MAX_WRITE_BATCH = 64

#: Result frames up to this size are joined into one part (one write,
#: one packet for a small reply); larger ones go to the socket part by
#: part, so a big result is never assembled into one body.
_SINGLE_WRITE_BYTES = 64 * 1024

_SESSION_KNOBS = ("parallelism", "profile")

#: How long the accept loop waits after an ``accept()`` that failed.
_ACCEPT_RETRY_SECONDS = 0.05

_LOG = logging.getLogger(__name__)


class _QueueItem:
    """One statement waiting for the writer thread."""

    __slots__ = ("kind", "run", "future")

    def __init__(self, kind: str, run, future: Future):
        self.kind = kind
        self.run = run
        self.future = future


class ReproServer:
    """Thread-per-connection socket server over one shared Database.

    ``start()`` returns once the socket is bound (an ephemeral
    ``port=0`` is resolved by then), ``stop()`` hangs up on every
    client and joins every thread.  Usable as a context manager.
    """

    def __init__(
        self,
        database: "Database",
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
    ):
        self.database = database
        self.host = host
        self.port = port
        self._obs = database.obs
        #: One thread drains it: the total order of writes is the queue
        #: order.  ``None`` wakes the writer up to stop.
        self._write_queue: queue.SimpleQueue[_QueueItem | None] = (
            queue.SimpleQueue()
        )
        #: Guards what start() and the accept loop publish to stop() —
        #: the listener, the threads, the connection registry and the
        #: sessions opened and closed with it — and orders the stop flag
        #: against a racing enqueue.
        self._lock = make_lock("serve.server.connections")
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._stopping = threading.Event()

    @property
    def uri(self) -> str:
        with self._lock:
            return f"repro://{self.host}:{self.port}"

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ReproServer":
        """Bind the socket, start the accept and writer threads."""
        with self._lock:
            address = (self.host, self.port)
        listener = socket.create_server(
            address,
            family=socket.AF_INET6 if ":" in self.host else socket.AF_INET,
        )
        threads = [
            threading.Thread(
                target=self._accept_loop,
                args=(listener,),
                name="repro-accept",
                daemon=True,
            ),
            threading.Thread(
                target=self._writer_loop, name="repro-writer", daemon=True
            ),
        ]
        with self._lock:
            self._listener = listener
            self._threads = threads
            self.port = listener.getsockname()[1]
        for thread in threads:
            thread.start()
        return self

    def serve_forever(self) -> None:
        """Once started, block until :meth:`stop` (or an interrupt)."""
        with self._lock:
            accept_thread = self._threads[0]
        accept_thread.join()

    def stop(self) -> None:
        """Hang up on everyone, fail queued statements, join every thread.

        Idempotent.  A statement the writer is running finishes (its
        reply is dropped); one still queued fails with
        :class:`ConnectionClosedError`.
        """
        with self._lock:
            listener = self._listener
            if listener is None or self._stopping.is_set():
                return
            self._stopping.set()
            threads = self._threads + list(self._connections.values())
            connections = list(self._connections)
        _hang_up(listener)  # a thread parked in accept or recv returns
        listener.close()
        for connection in connections:
            _hang_up(connection)
        self._write_queue.put(None)
        for thread in threads:
            thread.join()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- the accept loop ----------------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                connection, _ = listener.accept()
            except OSError as error:
                if self._stopping.is_set():
                    return  # stop() closed the listener
                # Out of descriptors, or a peer that reset before it
                # was accepted: that connection is lost, the listener
                # is not.  The pause lets a descriptor come free.
                _LOG.warning("accept failed, still listening: %s", error)
                time.sleep(_ACCEPT_RETRY_SECONDS)
                continue
            try:
                # Replies go out part by part; Nagle would hold each
                # small part back for the peer's delayed ACK.
                connection.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
            except OSError:
                connection.close()  # the peer is already gone
                continue
            thread = threading.Thread(
                target=self._handle_client,
                args=(connection,),
                name="repro-conn",
                daemon=True,
            )
            with self._lock:
                if self._stopping.is_set():
                    connection.close()
                    return
                self._connections[connection] = thread
                self._obs.gauge("server.connections.active").set(
                    len(self._connections)
                )
                thread.start()  # before stop() can see it, and join it
            self._obs.counter("server.connections.total").inc()

    # -- the writer loop ----------------------------------------------------

    def _writer_loop(self) -> None:
        """Drain the write queue into group-commit batches until stopped."""
        pending = self._write_queue
        while True:
            item = pending.get()
            if item is None or self._stopping.is_set():
                break
            batch = [item]
            try:
                while len(batch) < MAX_WRITE_BATCH:
                    batch.append(pending.get_nowait())
            except queue.Empty:
                pass
            if batch[-1] is None:  # stop() arrived behind this batch
                batch.pop()
                pending.put(None)
            self._obs.gauge("server.write_queue.depth").set(pending.qsize())
            self._obs.counter("server.write_batches").inc()
            self._obs.histogram("server.write_batch.statements").observe(
                len(batch)
            )
            for item, value, error in self._run_batch(batch):
                if error is not None:
                    item.future.set_exception(error)
                else:
                    item.future.set_result(value)
        # Nothing is enqueued once the stop flag is up (see _enqueue), so
        # what is here now is all there will ever be.
        while item is not None:
            item.future.set_exception(ConnectionClosedError("server stopped"))
            item = pending.get()

    def _run_batch(self, batch: list[_QueueItem]) -> list[tuple]:
        """Execute one queue batch on the writer thread, in order.

        Consecutive ``write`` statements share one ``deferred_sync``
        scope (group commit); checkpoints run alone so a checkpoint's
        own sync/compact never nests inside a deferred-sync batch.  A
        scope that fails on the way out fails its statements, not the
        writer thread.
        """
        outcomes: list[tuple] = []

        def run_one(item: _QueueItem) -> None:
            try:
                outcomes.append((item, item.run(), None))
            except Exception as error:  # noqa: BLE001 - shipped to client
                outcomes.append((item, None, error))

        position = 0
        while position < len(batch):
            if batch[position].kind != "write":
                run_one(batch[position])
                position += 1
                continue
            end = position
            while end < len(batch) and batch[end].kind == "write":
                end += 1
            group, position = batch[position:end], end
            answered = len(outcomes)
            try:
                with self.database.wal.deferred_sync():
                    for item in group:
                        run_one(item)
                    # Drift-triggered background rebuilds run on the
                    # writer thread between client statements, inside
                    # the same group-commit scope so the rebuild's
                    # rebuild_index record rides the batch fsync.
                    self.database.run_pending_rebuilds()
            except Exception as error:  # noqa: BLE001 - shipped to client
                # The group's one fsync (or its sweep) failed: none of
                # its statements is known durable, so each is told.
                outcomes[answered:] = [(item, None, error) for item in group]
        return outcomes

    def _enqueue(self, kind: str, run) -> object:
        """Queue one statement for the writer thread and wait for it."""
        future: Future = Future()
        with self._lock:
            # Under the lock stop() raises the flag with, so the writer
            # sees every statement that got past this check.
            if self._stopping.is_set():
                raise ConnectionClosedError("server stopped")
            self._write_queue.put(_QueueItem(kind, run, future))
        self._obs.gauge("server.write_queue.depth").set(
            self._write_queue.qsize()
        )
        return future.result()

    # -- per-connection handling --------------------------------------------

    def _handle_client(self, connection: socket.socket) -> None:
        with self._lock:
            session = self.database.session(snapshot_reads=True, label=None)
        try:
            self._serve_connection(connection, session)
        except OSError:
            pass  # client vanished; nothing left to tell it
        finally:
            connection.close()
            with self._lock:
                session.close()
                del self._connections[connection]
                self._obs.gauge("server.connections.active").set(
                    len(self._connections)
                )

    def _serve_connection(
        self, connection: socket.socket, session: Session
    ) -> None:
        while True:
            try:
                request = read_frame(connection)
            except ProtocolError as error:
                # The stream cannot be resynchronized after a bad
                # frame: report once, then hang up.
                _send(connection, self._error_frame(error))
                return
            if request is None:
                return
            frame, keep_open = self._dispatch(request, session)
            _send(connection, frame)
            if not keep_open:
                return

    # -- request dispatch ---------------------------------------------------

    def _dispatch(self, request: dict, session: Session) -> tuple[list, bool]:
        """One request → (response frame, keep connection open).

        The frame comes back encoded (:func:`frame_parts`), so a
        response that cannot be encoded is answered with its typed
        error like any other failure of the op.
        """
        op = request.get("op")
        if op not in OPS:
            return (
                self._error_frame(
                    ProtocolError(f"unknown op {op!r}; expected one of {OPS}")
                ),
                True,
            )
        self._obs.counter("server.requests").inc()
        self._obs.counter(f"server.requests.{op}").inc()
        try:
            if op == "close":
                return frame_parts({"ok": True}), False
            if op == "sql":  # encoded by the thread that ran it
                return self._run_sql(request, session), True
            return frame_parts(self._run_op(op, request, session)), True
        except Exception as error:  # noqa: BLE001 - shipped to client
            return self._error_frame(error), True

    def _error_frame(self, error: BaseException) -> list:
        self._obs.counter("server.errors").inc()
        return frame_parts(error_to_wire(error))

    def _run_op(self, op: str, request: dict, session: Session) -> dict:
        database = self.database
        if op == "hello":
            import repro

            return {
                "server": "repro",
                "version": repro.__version__,
                "engine": database.engine.describe(),
                "wire_version": WIRE_VERSION,
            }
        if op == "ping":
            return {"ok": True}
        if op == "explain":
            return {"text": self._run_explain(request, session)}
        if op == "set":
            return self._run_set(request, session)
        if op == "describe":
            return {"text": database.describe()}
        if op == "metrics":
            registry = database.metrics()
            return {"text": registry.to_text(), "json": registry.to_json()}
        if op == "cache_stats":
            return {"stats": database.cache_stats()}
        if op == "checkpoint":
            return {"result": self._enqueue("checkpoint", database.checkpoint)}
        raise ProtocolError(f"unhandled op {op!r}")  # pragma: no cover

    def _run_sql(self, request: dict, session: Session) -> list:
        """A read runs on the connection's thread against its own pin;
        a write or a checkpoint runs on the writer thread."""
        text = _required_text(request, "sql")
        kind = statement_kind(text)
        run = partial(
            self._sql_frame,
            partial(
                session._sql,
                text,
                kind == "read",
                parallelism=_optional_int(request, "parallelism"),
                profile=_optional_bool(request, "profile"),
            ),
        )
        if kind == "read":
            return run()
        return self._enqueue(kind, run)

    def _sql_frame(self, run) -> list:
        """Run a statement and encode its result, on the calling thread
        (the connection's for a read, else the writer)."""
        result = run()
        started = time.perf_counter()
        try:
            frame = frame_parts({"result": result_to_wire(result)})
        except ProtocolError:  # larger than MAX_FRAME_BYTES
            self._obs.counter("server.errors.result_too_large").inc()
            raise
        size = sum(len(part) for part in frame)
        if size <= _SINGLE_WRITE_BYTES:
            frame = [b"".join(frame)]
        self._obs.histogram("server.result_encode.seconds").observe(
            time.perf_counter() - started
        )
        self._obs.histogram("server.response.bytes").observe(size)
        return frame

    def _run_explain(self, request: dict, session: Session) -> str:
        return session.explain(
            _required_text(request, "explain"),
            parallelism=_optional_int(request, "parallelism"),
            analyze=_optional_bool(request, "analyze"),
        )

    def _run_set(self, request: dict, session: Session) -> dict:
        knob = request.get("knob")
        if knob not in _SESSION_KNOBS:
            raise ProtocolError(
                f"unknown session knob {knob!r}; expected one of "
                f"{_SESSION_KNOBS}"
            )
        value = request.get("value")
        if knob == "parallelism":
            value = None if value is None else max(1, int(value))
            session.parallelism = value
        else:
            session.profile = bool(value)
        return {"ok": True, "knob": knob, "value": value}


def _hang_up(sock: socket.socket) -> None:
    """Shut *sock* down both ways, waking any thread blocked on it."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or the peer is already gone


def _send(connection: socket.socket, frame: list) -> None:
    for part in frame:
        connection.sendall(part)


def _required_text(request: dict, op: str) -> str:
    text = request.get("text")
    if not isinstance(text, str):
        raise ProtocolError(f"{op} op requires a string 'text'")
    return text


def _optional_int(request: dict, key: str) -> int | None:
    value = request.get(key)
    return None if value is None else int(value)


def _optional_bool(request: dict, key: str) -> bool:
    return bool(request.get(key, False))


class ServerThread(ReproServer):
    """A :class:`ReproServer` that binds an ephemeral port by default —
    what tests and benchmarks put in a ``with`` block."""

    def __init__(
        self,
        database: "Database",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        super().__init__(database, host=host, port=port)
