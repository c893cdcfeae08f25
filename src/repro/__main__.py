r"""Interactive SQL shell and network server.

``python -m repro [--threads N] [--metrics-dump PATH] [--data-dir DIR]``
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
    repro> \threads 4    -- set the degree of parallelism (\threads shows it)
    repro> \profile on   -- print a query profile after every statement
    repro> \metrics      -- dump the instance's metrics registry
    repro> \cache        -- show block cache occupancy and hit ratio
    repro> \checkpoint   -- flush durable state (same as CHECKPOINT;)
    repro> EXPLAIN ANALYZE SELECT DISTINCT c FROM t;
    repro> \q

Statements may span lines; they execute at the terminating semicolon.
``--threads N`` (or the ``REPRO_THREADS`` environment variable) sets
the morsel-parallel worker count; ``--threads 1`` forces serial plans.
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
import sys

from repro.errors import ReproError
from repro.exec.parallel import default_parallelism
from repro.storage.database import Database

_BANNER = (
    "repro — PatchIndex reproduction shell. "
    "End statements with ';'.  \\d describes, \\threads sets "
    "parallelism, \\profile toggles profiling, \\metrics dumps "
    "metrics, \\cache shows the block cache, \\drift shows PatchIndex "
    "maintenance drift, \\checkpoint flushes durable state, \\q quits."
)


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
        if not buffer and stripped.startswith("\\threads"):
            argument = stripped[len("\\threads"):].strip()
            if not argument:
                effective = (
                    database.parallelism
                    if database.parallelism is not None
                    else default_parallelism()
                )
                emit(f"parallelism: {effective}")
            else:
                try:
                    database.parallelism = max(1, int(argument))
                    emit(f"parallelism set to {database.parallelism}")
                except ValueError:
                    emit(f"error: \\threads expects an integer, got {argument!r}")
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
        if not buffer and stripped == "\\drift":
            try:
                report = database.drift_report()
            except AttributeError:
                emit("(drift reporting unavailable on this connection)")
                continue
            if not report:
                emit("(no patch indexes)")
                continue
            for entry in report:
                marker = " REBUILD PENDING" if entry["rebuild_pending"] else ""
                location = (
                    f" on {entry['table']}({entry['column']})"
                    if "table" in entry
                    else ""
                )
                emit(
                    f"{entry['index']}{location}: "
                    f"drift={entry['drift_rate']:.4f} "
                    f"threshold={entry['rebuild_threshold']:.4f} "
                    f"patches={entry['patch_count']} "
                    f"rebuilds={entry['rebuilds']}{marker}"
                )
            continue
        if not buffer and stripped == "\\checkpoint":
            try:
                info = database.checkpoint()
                emit(
                    f"checkpoint at lsn {info['lsn']}: "
                    f"{info['segments']} segments, "
                    f"{info['wal_pruned']} wal records pruned "
                    f"({info['seconds']:.3f}s)"
                )
            except ReproError as error:
                emit(f"error: {error}")
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
    threads: int | None,
) -> int:
    """Run ``python -m repro serve`` until interrupted."""
    from repro.serve import ReproServer

    database = Database(path=data_dir, parallelism=threads)
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
    parser.add_argument("--threads", type=int, help="degree of parallelism")
    parser.add_argument("--metrics-dump", metavar="PATH")
    parser.add_argument("--data-dir", metavar="DIR")
    parser.add_argument("--connect", metavar="URI")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int)
    args = parser.parse_args(argv)
    if args.threads is not None:
        args.threads = max(1, args.threads)
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
        return run_server(args.data_dir, args.host, port, args.threads)
    if args.connect is not None:
        from repro.serve import ServerClient

        database = ServerClient.from_uri(args.connect)
        if args.threads is not None:
            database.parallelism = args.threads
    else:
        database = Database(path=args.data_dir, parallelism=args.threads)
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
    sys.exit(main())
