"""The repro network server: many sessions, one Database.

:class:`ReproServer` is an asyncio socket server multiplexing client
connections onto one :class:`~repro.storage.database.Database`.  Each
connection gets its own :class:`~repro.sql.session.Session` (opened
with ``snapshot_reads=True``), and statements are routed by
:func:`~repro.sql.session.statement_kind`:

- **reads** run concurrently on a thread pool, each against its own
  pinned MVCC snapshot — a read never waits for a writer and never
  observes a torn generation;
- **writes and checkpoints** are serialized through a single writer
  thread fed by a queue.  The writer drains the queue in batches and
  executes consecutive writes under one
  :meth:`~repro.storage.wal.WriteAheadLog.deferred_sync` scope — group
  commit: one fsync per batch instead of one per statement, which is
  where the throughput under concurrent write load comes from.

On a memory-engine database (no snapshots) reads are serialized
through the same writer queue, trading concurrency for correctness.

All blocking work happens on executor threads; coroutine bodies only
await and write.  That includes encoding a statement's result, which
the thread that ran the statement does before handing the finished
frame back to the loop.  Observability lands in the database's
registry under the ``server.*`` namespace (connection counts, per-op
request counters, write-queue depth, result encode time and response
size) next to the WAL's ``wal.group_commit.*`` batching metrics.

:class:`ServerThread` runs the event loop on a background thread — the
shape tests, benchmarks and ``python -m repro serve`` share.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import TYPE_CHECKING

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

#: Threads for concurrent snapshot reads.
DEFAULT_READ_THREADS = 8

#: Result frames up to this size are joined into one part (one write,
#: one packet for a small reply); larger ones go to the transport part
#: by part, so a big result is never assembled into one body.
_SINGLE_WRITE_BYTES = 64 * 1024

_SESSION_KNOBS = ("parallelism", "profile", "snapshot_reads")


class _QueueItem:
    """One statement waiting for the writer thread."""

    __slots__ = ("kind", "run", "future")

    def __init__(self, kind: str, run, future: asyncio.Future):
        self.kind = kind
        self.run = run
        self.future = future


class ReproServer:
    """Asyncio socket server over one shared Database."""

    def __init__(
        self,
        database: "Database",
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        read_threads: int = DEFAULT_READ_THREADS,
    ):
        self.database = database
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._writer_task: asyncio.Task | None = None
        self._write_queue: asyncio.Queue[_QueueItem] = asyncio.Queue()
        #: One thread: the total order of writes is the queue order.
        self._write_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-writer"
        )
        self._read_executor = ThreadPoolExecutor(
            max_workers=max(1, read_threads),
            thread_name_prefix="repro-reader",
        )
        self._snapshot_reads = database.engine.supports_snapshots
        self._obs = database.obs
        self._sessions = 0

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the writer loop."""
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._writer_task = asyncio.get_running_loop().create_task(
            self._writer_loop()
        )

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        server = self._server
        if server is None:  # pragma: no cover - start() always binds
            raise ProtocolError("server failed to start")
        async with server:
            await server.serve_forever()

    async def stop(self) -> None:
        """Close the listener, stop the writer, fail queued statements."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._writer_task is not None:
            self._writer_task.cancel()
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass
        while not self._write_queue.empty():
            item = self._write_queue.get_nowait()
            if not item.future.done():
                item.future.set_exception(
                    ConnectionClosedError("server stopped")
                )
        self._write_executor.shutdown(wait=True)
        self._read_executor.shutdown(wait=True)

    # -- the writer loop ----------------------------------------------------

    async def _writer_loop(self) -> None:
        """Drain the write queue into group-commit batches, forever."""
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._write_queue.get()]
            while len(batch) < MAX_WRITE_BATCH:
                try:
                    batch.append(self._write_queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self._obs.gauge("server.write_queue.depth").set(
                self._write_queue.qsize()
            )
            self._obs.counter("server.write_batches").inc()
            self._obs.histogram("server.write_batch.statements").observe(
                len(batch)
            )
            outcomes = await loop.run_in_executor(
                self._write_executor, self._run_batch, batch
            )
            for item, value, error in outcomes:
                if item.future.done():  # client vanished mid-statement
                    continue
                if error is not None:
                    item.future.set_exception(error)
                else:
                    item.future.set_result(value)

    def _run_batch(self, batch: list[_QueueItem]) -> list[tuple]:
        """Execute one queue batch on the writer thread, in order.

        Consecutive ``write`` statements share one ``deferred_sync``
        scope (group commit); checkpoints and serialized reads run
        alone so a checkpoint's own sync/compact never nests inside a
        deferred-sync batch.
        """
        outcomes: list[tuple] = []

        def run_one(item: _QueueItem) -> None:
            try:
                outcomes.append((item, item.run(), None))
            except Exception as error:  # noqa: BLE001 - shipped to client
                outcomes.append((item, None, error))

        position = 0
        while position < len(batch):
            if batch[position].kind == "write":
                with self.database.wal.deferred_sync():
                    while (
                        position < len(batch)
                        and batch[position].kind == "write"
                    ):
                        run_one(batch[position])
                        position += 1
                    # Drift-triggered background rebuilds run on the
                    # writer thread between client statements, inside
                    # the same group-commit scope so the rebuild's
                    # invalidate delta rides the batch fsync.
                    self.database.run_pending_rebuilds()
            else:
                run_one(batch[position])
                position += 1
        return outcomes

    async def _enqueue(self, kind: str, run) -> object:
        """Queue one statement for the writer thread and await it."""
        future = asyncio.get_running_loop().create_future()
        await self._write_queue.put(_QueueItem(kind, run, future))
        self._obs.gauge("server.write_queue.depth").set(
            self._write_queue.qsize()
        )
        return await future

    # -- per-connection handling --------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = self.database.session(
            snapshot_reads=self._snapshot_reads, label=None
        )
        self._sessions += 1
        self._obs.counter("server.connections.total").inc()
        self._obs.gauge("server.connections.active").set(self._sessions)
        try:
            await self._serve_connection(reader, writer, session)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished; nothing left to tell it
        finally:
            session.close()
            self._sessions -= 1
            self._obs.gauge("server.connections.active").set(self._sessions)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        session: Session,
    ) -> None:
        while True:
            try:
                request = await read_frame(reader)
            except ProtocolError as error:
                # The stream cannot be resynchronized after a bad
                # frame: report once, then hang up.
                await self._send(writer, self._error_frame(error))
                return
            if request is None:
                return
            frame, keep_open = await self._dispatch(request, session)
            await self._send(writer, frame)
            if not keep_open:
                return

    async def _send(self, writer: asyncio.StreamWriter, frame: list) -> None:
        for part in frame:
            writer.write(part)
            await writer.drain()

    # -- request dispatch ---------------------------------------------------

    async def _dispatch(
        self, request: dict, session: Session
    ) -> tuple[list, bool]:
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
                return await self._run_sql(request, session), True
            return frame_parts(await self._run_op(op, request, session)), True
        except Exception as error:  # noqa: BLE001 - shipped to client
            return self._error_frame(error), True

    def _error_frame(self, error: BaseException) -> list:
        self._obs.counter("server.errors").inc()
        return frame_parts(error_to_wire(error))

    async def _run_op(
        self, op: str, request: dict, session: Session
    ) -> dict:
        database = self.database
        if op == "hello":
            import repro

            return {
                "server": "repro",
                "version": repro.__version__,
                "engine": database.engine.describe(),
                "snapshot_reads": self._snapshot_reads,
                "wire_version": WIRE_VERSION,
            }
        if op == "ping":
            return {"ok": True}
        if op == "explain":
            return await self._run_explain(request, session)
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
            info = await self._enqueue("checkpoint", database.checkpoint)
            return {"result": info}
        raise ProtocolError(f"unhandled op {op!r}")  # pragma: no cover

    async def _run_sql(self, request: dict, session: Session) -> list:
        text = request.get("text")
        if not isinstance(text, str):
            raise ProtocolError("sql op requires a string 'text'")
        kind = statement_kind(text)
        on_snapshot = kind == "read" and session.snapshot_reads
        run = partial(
            self._sql_frame,
            partial(
                session._sql,
                text,
                on_snapshot,
                parallelism=_optional_int(request, "parallelism"),
                profile=_optional_bool(request, "profile"),
            ),
        )
        if on_snapshot:
            return await asyncio.get_running_loop().run_in_executor(
                self._read_executor, run
            )
        return await self._enqueue(kind, run)

    def _sql_frame(self, run) -> list:
        """Run a statement and encode its result, on the calling thread.

        Encoding is blocking work like the statement itself, so it
        stays on the reader or writer thread; the loop gets the frame.
        """
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

    async def _run_explain(self, request: dict, session: Session) -> dict:
        text = request.get("text")
        if not isinstance(text, str):
            raise ProtocolError("explain op requires a string 'text'")
        run = partial(
            session.explain,
            text,
            parallelism=_optional_int(request, "parallelism"),
            analyze=bool(request.get("analyze", False)),
        )
        if session.snapshot_reads:
            rendered = await asyncio.get_running_loop().run_in_executor(
                self._read_executor, run
            )
        else:
            rendered = await self._enqueue("read", run)
        return {"text": rendered}

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
        elif knob == "profile":
            session.profile = bool(value)
        elif knob == "snapshot_reads":
            # Re-gated by engine support, exactly like Session.__init__.
            session.snapshot_reads = (
                bool(value) and self.database.engine.supports_snapshots
            )
            value = session.snapshot_reads
        return {"ok": True, "knob": knob, "value": value}


def _optional_int(request: dict, key: str) -> int | None:
    value = request.get(key)
    return None if value is None else int(value)


def _optional_bool(request: dict, key: str) -> bool:
    return bool(request.get(key, False))


class ServerThread:
    """A ReproServer running its event loop on a background thread.

    The synchronous harness tests, benchmarks and the CLI share:
    ``start()`` returns once the socket is bound (the ephemeral
    ``port=0`` is resolved by then), ``stop()`` shuts the loop down and
    joins the thread.  Usable as a context manager.
    """

    def __init__(
        self,
        database: "Database",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        read_threads: int = DEFAULT_READ_THREADS,
    ):
        self.server = ReproServer(
            database, host=host, port=port, read_threads=read_threads
        )
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def uri(self) -> str:
        return f"repro://{self.server.host}:{self.server.port}"

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # pragma: no cover - defensive
            if not self._ready.is_set():
                self._startup_error = error
                self._ready.set()
            else:
                raise

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.server.start()
        except OSError as error:
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()

    def stop(self) -> None:
        if self._thread is None or self._loop is None:
            return
        loop, stop_event = self._loop, self._stop_event
        if stop_event is not None and not loop.is_closed():
            loop.call_soon_threadsafe(stop_event.set)
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
