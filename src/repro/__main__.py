r"""Interactive SQL shell and network server.

``python -m repro [--metrics-dump PATH] [--data-dir DIR]``
starts the REPL over a local :class:`repro.storage.database.Database`
(in memory without ``--data-dir``);
``python -m repro --connect repro://host:port`` runs the same REPL
against a remote server; ``python -m repro serve --data-dir DIR
[--host H] [--port P]`` starts the server itself.

A minimal REPL — enough to poke at PatchIndexes interactively:

    $ python -m repro
    repro> CREATE TABLE t (c BIGINT);
    repro> INSERT INTO t VALUES (1), (2), (2);
    repro> CREATE PATCHINDEX pi ON t(c) TYPE UNIQUE;
    repro> SELECT COUNT(DISTINCT c) AS n FROM t;
    repro> \d            -- describe tables and indexes
    repro> \profile on   -- print a query profile after every statement
    repro> \metrics      -- dump the instance's metrics registry
    repro> \cache        -- show block cache occupancy and hit ratio
    repro> \checkpoint   -- flush durable state (same as CHECKPOINT;)
    repro> EXPLAIN ANALYZE SELECT DISTINCT c FROM t;
    repro> \q

Statements may span lines; they execute at the terminating semicolon.
``--metrics-dump PATH`` writes the metrics registry as JSON on exit.
``--data-dir DIR`` opens (or creates) a durable database directory:
data survives restarts, ``CHECKPOINT`` / ``\checkpoint`` flushes
segment files, and reopening the same directory recovers tables and
PatchIndexes as they were.

The REPL drives remote databases through the same commands — a
:class:`repro.serve.ServerClient` mirrors the ``Database`` surface the
shell uses, so ``\d``, ``\metrics``, ``\checkpoint`` and friends work
identically over the wire.
"""

from __future__ import annotations

import argparse
import ctypes
import platform
import sys

from repro.errors import ReproError
from repro.storage.database import Database

_BANNER = (
    "repro — PatchIndex reproduction shell. "
    "End statements with ';'.  \\d describes, "
    "\\profile toggles profiling, \\metrics dumps "
    "metrics, \\cache shows the block cache, \\checkpoint flushes "
    "durable state, \\q quits."
)
_COMMANDS = (
    "commands: \\d, \\profile [on|off], \\metrics, "
    "\\cache, \\checkpoint, \\q"
)


#: glibc's ``mallopt`` parameter numbers (``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: glibc's ceiling for its dynamic mmap threshold on 64-bit, and the
#: trim threshold its dynamic rule pairs with it (twice that).
_MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024
_TRIM_THRESHOLD_BYTES = 2 * _MMAP_THRESHOLD_BYTES


def keep_heap() -> None:
    """Let freed statement buffers stay in the heap, on glibc.

    By default glibc serves an allocation over 128 KiB with its own
    mapping and unmaps it on free, and trims the heap top past 128 KiB,
    until frees raise both thresholds; a fresh process then hands each
    statement's large numpy buffers back to the kernel and faults them
    in again on the next statement.  These are the values the dynamic
    rule reaches after freeing one 32 MiB mapping.  Only the processes
    ``python -m repro`` owns call this: a library leaves its host's
    allocator alone.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def run_shell(
    database: Database,
    input_stream=None,
    output=None,
) -> int:
    """Drive the REPL; returns an exit code.  Streams are injectable
    for tests; ``input_stream=None`` uses interactive ``input()``."""
    out = output or sys.stdout

    def emit(text: str) -> None:
        print(text, file=out)

    emit(_BANNER)
    profiling = False
    buffer: list[str] = []
    lines = iter(input_stream) if input_stream is not None else None
    while True:
        prompt = "repro> " if not buffer else "  ...> "
        if lines is not None:
            line = next(lines, None)
            if line is None:
                return 0
            line = line.rstrip("\n")
        else:  # pragma: no cover - interactive path
            try:
                line = input(prompt)
            except EOFError:
                return 0
        stripped = line.strip()
        if not buffer and stripped in ("\\q", "quit", "exit"):
            return 0
        if not buffer and stripped == "\\d":
            emit(database.describe() or "(empty catalog)")
            continue
        if not buffer and stripped.startswith("\\profile"):
            argument = stripped[len("\\profile"):].strip().lower()
            if argument in ("on", "off"):
                profiling = argument == "on"
            elif argument:
                emit(f"error: \\profile expects on/off, got {argument!r}")
                continue
            else:
                profiling = not profiling
            emit(f"profiling {'on' if profiling else 'off'}")
            continue
        if not buffer and stripped == "\\metrics":
            emit(database.metrics().to_text() or "(no metrics)")
            continue
        if not buffer and stripped == "\\cache":
            stats = database.cache_stats()
            if stats is None:
                emit("(no cache: in-memory database or cache_bytes=0)")
            else:
                emit(
                    f"block cache: {stats['bytes']}/{stats['capacity_bytes']} "
                    f"bytes in {stats['entries']} entries"
                )
                emit(
                    f"  hits={stats['hits']} misses={stats['misses']} "
                    f"hit_ratio={stats['hit_ratio']:.3f}"
                )
                emit(
                    f"  evictions={stats['evictions']} "
                    f"oversized_skips={stats['skip_count']} "
                    f"scan_bypass={stats['scan_bypass']}"
                )
            continue
        if not buffer and stripped == "\\checkpoint":
            # The statement, run below like any other: one path for a
            # local database and a server.
            stripped = line = "CHECKPOINT;"
        if not buffer and stripped.startswith("\\"):
            emit(f"error: unknown command {stripped.split()[0]}")
            emit(_COMMANDS)
            continue
        if not stripped and not buffer:
            continue
        buffer.append(line)
        if not stripped.endswith(";"):
            continue
        statement = "\n".join(buffer)
        buffer = []
        try:
            result = database.sql(statement, profile=profiling)
            emit(result.pretty())
            if profiling and result.profile is not None:
                emit(result.profile.to_text())
        except ReproError as error:
            emit(f"error: {error}")


def run_server(
    data_dir: str | None,
    host: str,
    port: int,
) -> int:
    """Run ``python -m repro serve`` until interrupted."""
    from repro.serve import ReproServer

    database = Database(path=data_dir)
    server = ReproServer(database, host=host, port=port).start()
    storage = data_dir if data_dir is not None else "(in-memory)"
    print(
        f"repro server listening on {server.uri} "
        f"— storage {storage}; ctrl-c stops",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        server.stop()
    return 0


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """Parse and cross-check *argv*; a usage error exits with status 2."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PatchIndex reproduction shell, or (serve) its server.",
        allow_abbrev=False,
    )
    parser.add_argument(
        "target",
        nargs="?",
        choices=["serve"],
        help="'serve' starts the server; without it, the shell",
    )
    # Execution is serial; only bench_e2e/harness.py passes --threads 1.
    parser.add_argument(
        "--threads", type=int, choices=[1], help=argparse.SUPPRESS
    )
    parser.add_argument("--metrics-dump", metavar="PATH")
    parser.add_argument("--data-dir", metavar="DIR")
    parser.add_argument("--connect", metavar="URI")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int)
    args = parser.parse_args(argv)
    if args.target == "serve":
        if args.connect is not None:
            parser.error("serve and --connect are exclusive")
    elif args.connect is not None and args.data_dir is not None:
        parser.error("--connect is exclusive with --data-dir")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as stop:  # --help, or a usage error already printed
        return stop.code if isinstance(stop.code, int) else 2
    if args.target == "serve":
        from repro.serve.protocol import DEFAULT_PORT

        port = args.port if args.port is not None else DEFAULT_PORT
        return run_server(args.data_dir, args.host, port)
    if args.connect is not None:
        from repro.serve import ServerClient

        database = ServerClient.from_uri(args.connect)
    else:
        database = Database(path=args.data_dir)
    code = run_shell(database)
    if args.metrics_dump is not None:
        try:
            with open(args.metrics_dump, "w", encoding="utf-8") as handle:
                handle.write(database.metrics().to_json())
                handle.write("\n")
        except OSError as error:
            print(
                f"error: cannot write metrics to {args.metrics_dump!r}: {error}",
                file=sys.stderr,
            )
            return 2
    if args.connect is not None:
        database.close()
    return code


if __name__ == "__main__":  # pragma: no cover - module entry point
    keep_heap()
    sys.exit(main())
