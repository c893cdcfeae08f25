"""Server throughput under concurrent clients.

The headline acceptance of the serving layer: a durable database behind
:class:`~repro.serve.ReproServer` must scale snapshot-pinned reads with
client concurrency — queries per second at 4 and 16 clients should not
collapse below the single-client rate — because each read runs on its
connection's thread against a pinned MVCC snapshot and never queues
behind writers.

Two workloads are swept over a durable database:

- **reads** — each client loops a 1000-row range aggregate at 1, 4 and
  16 concurrent connections; q/s per concurrency level is recorded;
- **writes** — 8 clients insert single rows concurrently; statements/s
  plus the WAL's group-commit counters show how many fsyncs the writer
  batches absorbed.

Results land in ``BENCH_server.json``.

Run:  PYTHONPATH=src python benchmarks/bench_server.py

Knobs: ``REPRO_BENCH_SERVER_ROWS`` (default 200_000) and
``REPRO_BENCH_SERVER_SECONDS`` (per-workload duration, default 3.0).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.serve import ServerClient, ServerThread
from repro.storage.column import ColumnVector
from repro.storage.database import Database
from repro.storage.schema import Field, Schema
from repro.types import DataType

ROWS = int(os.environ.get("REPRO_BENCH_SERVER_ROWS", 200_000))
SECONDS = float(os.environ.get("REPRO_BENCH_SERVER_SECONDS", 3.0))
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_server.json"

READ_CONCURRENCY = (1, 4, 16)
WRITE_CLIENTS = 8
RANGE_WIDTH = 1_000


def build(root: Path) -> Database:
    """A durable database with one checkpointed table of ROWS rows."""
    database = Database(path=root, parallelism=1, sync=False)
    table = database.create_table(
        "t",
        Schema([Field("k", DataType.INT64), Field("v", DataType.INT64)]),
        partition_count=4,
    )
    keys = np.arange(ROWS, dtype=np.int64)
    values = np.random.default_rng(11).integers(
        0, 1_000, size=ROWS, dtype=np.int64
    )
    table.load_columns(
        {
            "k": ColumnVector.from_numpy(DataType.INT64, keys),
            "v": ColumnVector.from_numpy(DataType.INT64, values),
        }
    )
    database.checkpoint()
    return database


def _read_loop(
    server: ServerThread,
    stop: threading.Event,
    counts: list[int],
    slot: int,
    failures: list[BaseException],
) -> None:
    try:
        with ServerClient(server.host, server.port) as client:
            done = 0
            while not stop.is_set():
                low = (slot * 7919 + done * 991) % max(1, ROWS - RANGE_WIDTH)
                client.sql(
                    f"SELECT COUNT(*) AS n, SUM(v) AS s FROM t "
                    f"WHERE k BETWEEN {low} AND {low + RANGE_WIDTH - 1}"
                )
                done += 1
            counts[slot] = done
    except BaseException as error:  # noqa: BLE001 - surfaced by main
        failures.append(error)


def _write_loop(
    server: ServerThread,
    stop: threading.Event,
    counts: list[int],
    slot: int,
    failures: list[BaseException],
) -> None:
    try:
        with ServerClient(server.host, server.port) as client:
            done = 0
            while not stop.is_set():
                key = ROWS + slot * 1_000_000 + done
                client.sql(f"INSERT INTO t VALUES ({key}, {slot})")
                done += 1
            counts[slot] = done
    except BaseException as error:  # noqa: BLE001 - surfaced by main
        failures.append(error)


def run_clients(server: ServerThread, clients: int, target) -> dict:
    """Drive *clients* concurrent loops for SECONDS; return q/s."""
    stop = threading.Event()
    counts = [0] * clients
    failures: list[BaseException] = []
    threads = [
        threading.Thread(target=target, args=(server, stop, counts, slot, failures))
        for slot in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(SECONDS)
    stop.set()
    for thread in threads:
        thread.join(timeout=120)
    elapsed = time.perf_counter() - started
    if failures:
        raise failures[0]
    total = sum(counts)
    return {
        "clients": clients,
        "queries": total,
        "elapsed_s": elapsed,
        "qps": total / elapsed if elapsed else 0.0,
    }


def main() -> int:
    root = Path(tempfile.mkdtemp(prefix="repro-bench-server-"))
    try:
        database = build(root)
        reads: dict[str, dict] = {}
        with ServerThread(database) as server:
            for clients in READ_CONCURRENCY:
                reads[str(clients)] = run_clients(server, clients, _read_loop)
                record = reads[str(clients)]
                print(
                    f"reads  {clients:>2} clients  "
                    f"{record['qps']:9.1f} q/s  "
                    f"({record['queries']} queries / "
                    f"{record['elapsed_s']:.2f}s)"
                )
            writes = run_clients(server, WRITE_CLIENTS, _write_loop)
        obs = database.obs
        batches = obs.counter("wal.group_commit.batches").value
        records = obs.counter("wal.group_commit.records").value
        print(
            f"writes {WRITE_CLIENTS:>2} clients  "
            f"{writes['qps']:9.1f} stmt/s  "
            f"group commit {records} records in {batches} fsync batches"
        )
        snapshot_builds = obs.counter("storage.snapshot.builds").value
        snapshot_reuses = obs.counter("storage.snapshot.reuses").value
        database.close()

        single = reads["1"]["qps"]
        scaled = all(
            reads[str(clients)]["qps"] >= single * 0.8
            for clients in READ_CONCURRENCY[1:]
        )
        headline_ok = scaled and single > 0
        print(
            f"read q/s at 4 and 16 clients "
            f"{'held' if scaled else 'collapsed'} vs 1 client -> "
            f"{'PASS' if headline_ok else 'FAIL'}"
        )

        payload = {
            "rows": ROWS,
            "seconds_per_workload": SECONDS,
            "range_width": RANGE_WIDTH,
            "reads": reads,
            "writes": {
                **writes,
                "group_commit_batches": batches,
                "group_commit_records": records,
                "statements_per_fsync": (
                    records / batches if batches else 0.0
                ),
            },
            "snapshots": {
                "builds": snapshot_builds,
                "reuses": snapshot_reuses,
            },
            "read_scaling_held": scaled,
            "headline_ok": headline_ok,
        }
        OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {OUTPUT}")
        return 0 if headline_ok else 1
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
