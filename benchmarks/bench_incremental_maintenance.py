"""Ablation: incremental maintenance vs rebuild-every-batch.

The paper (§V) maintains PatchIndexes incrementally so table mutations
never force the O(n log n) from-scratch discovery; this bench puts a
number on that choice.  Two arms run the same mutation stream — batches
of mostly-unique appends plus a few updates and deletes — over a
durable database carrying a NUC PatchIndex:

- ``incremental``: the maintainer (:mod:`repro.core.maintenance`)
  re-classifies the rows of every mutation; a full rebuild happens
  only when drift crosses ``REBUILD_THRESHOLD`` (0.02)
  (``run_pending_rebuilds`` after each batch, as the server does);
- ``rebuild_every_batch``: the self-management strawman — call
  ``index.rebuild()`` after every batch, as an engine without
  incremental maintenance must.

Both arms must answer the probe query identically; the headline is the
full-rebuild ratio (paper's motivation: ≥ 5× fewer rebuilds).

The second half measures what the checkpointed patch sets buy recovery:
the same directory is reopened twice — once as-is (patch sets restored,
then maintained through the replayed WAL data tail,
``recovery.indexes_restored``) and once with the manifest's patch-set
entries stripped (forced rebuild-from-data fallback,
``recovery.indexes_rebuilt``, which must count under
``recovery.index_fallbacks``).

Run:  PYTHONPATH=src python benchmarks/bench_incremental_maintenance.py

Knobs: ``REPRO_BENCH_MAINT_ROWS`` (base rows, default 100000),
``REPRO_BENCH_MAINT_BATCHES`` (mutation batches, default 20).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.gen import unique_with_exceptions
from repro.storage.database import Database
from repro.storage.schema import Field, Schema
from repro.types import DataType

BASE_ROWS = int(os.environ.get("REPRO_BENCH_MAINT_ROWS", "100000"))
BATCHES = int(os.environ.get("REPRO_BENCH_MAINT_BATCHES", "20"))
BATCH_ROWS = max(50, BASE_ROWS // 40)
DUPLICATES_PER_BATCH = max(1, BATCH_ROWS // 100)
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_maintenance.json"
QUERY = "SELECT COUNT(DISTINCT c) AS n FROM t"


def build(root: Path) -> Database:
    database = Database(path=root, parallelism=1)
    table = database.create_table(
        "t", Schema([Field("c", DataType.INT64)]), partition_count=2
    )
    table.load_columns(
        {"c": unique_with_exceptions(BASE_ROWS, 0.001, seed=20)}
    )
    database.create_patch_index("pi", "t", "c", kind="unique")
    database.checkpoint()
    return database


def mutate(database: Database, batch: int, rng: random.Random) -> None:
    """One batch: mostly-unique appends, a few duplicates, a few
    updates/deletes — the drift profile of a live fact table."""
    table = database.table("t")
    base = BASE_ROWS + batch * BATCH_ROWS
    rows = [[base + i] for i in range(BATCH_ROWS - DUPLICATES_PER_BATCH)]
    rows.extend(
        [[rng.randrange(0, BASE_ROWS)]] * DUPLICATES_PER_BATCH
    )
    table.insert_rows(rows)
    for _ in range(2):
        table.update_rowid(
            rng.randrange(0, table.row_count), "c", rng.randrange(0, BASE_ROWS)
        )
    database.sql(f"DELETE FROM t WHERE c = {rng.randrange(0, BASE_ROWS)}")


def run_arm(root: Path, rebuild_every_batch: bool) -> dict:
    database = build(root)
    index = database.catalog.index("pi")
    rebuilds_before = index.rebuild_count
    rng = random.Random(42)
    started = time.perf_counter()
    for batch in range(BATCHES):
        mutate(database, batch, rng)
        if rebuild_every_batch:
            index.rebuild()
        else:
            database.run_pending_rebuilds()
    elapsed = time.perf_counter() - started
    result = {
        "rebuilds": index.rebuild_count - rebuilds_before,
        "seconds": elapsed,
        "distinct": database.sql(QUERY).scalar(),
        "patch_count": index.patch_count,
        "drift_rate": index.drift_rate(),
    }
    database.close()
    return result


def measure_recovery(root: Path) -> dict:
    started = time.perf_counter()
    database = Database(path=root, parallelism=1)
    seconds = time.perf_counter() - started
    exported = database.metrics().export()
    gauges = exported["gauges"]
    out = {
        "seconds": seconds,
        "indexes_restored": gauges.get("recovery.indexes_restored", 0),
        "indexes_rebuilt": gauges.get("recovery.indexes_rebuilt", 0),
        "index_fallbacks": exported["counters"].get("recovery.index_fallbacks", 0),
        "records_replayed": gauges.get("recovery.replayed_records", 0),
        "distinct": database.sql(QUERY).scalar(),
    }
    database.close()
    return out


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix="repro-bench-maint-"))
    try:
        incremental = run_arm(workdir / "incremental", False)
        strawman = run_arm(workdir / "strawman", True)

        # Recovery: reopen the incremental directory as-is (restore
        # path), then again with the patch-set entries stripped from the
        # log's head record (forced rebuild-from-data fallback).
        with_patches = measure_recovery(workdir / "incremental")
        stripped = workdir / "stripped"
        shutil.copytree(workdir / "incremental", stripped)
        log = stripped / "wal.jsonl"
        head, tail = log.read_bytes().split(b"\n", 1)
        record = json.loads(head)
        record["payload"]["patches"] = {}
        log.write_bytes(json.dumps(record).encode("utf-8") + b"\n" + tail)
        without_patches = measure_recovery(stripped)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ratio = strawman["rebuilds"] / max(1, incremental["rebuilds"])
    equal = (
        incremental["distinct"] == strawman["distinct"]
        and with_patches["distinct"] == incremental["distinct"]
        and without_patches["distinct"] == incremental["distinct"]
    )
    rebuild_skipped = (
        with_patches["indexes_restored"] == 1
        and with_patches["indexes_rebuilt"] == 0
        and without_patches["indexes_rebuilt"] == 1
        # Else the strip missed and the second reopen measured a restore.
        and without_patches["index_fallbacks"] > 0
    )
    payload = {
        "base_rows": BASE_ROWS,
        "batches": BATCHES,
        "batch_rows": BATCH_ROWS,
        "query": QUERY,
        "arms": {
            "incremental": incremental,
            "rebuild_every_batch": strawman,
        },
        "rebuild_ratio": ratio,
        "equal_query_results": equal,
        "recovery": {
            "with_patch_sets": with_patches,
            "without_patch_sets": without_patches,
            "rebuild_skipped": rebuild_skipped,
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    print(
        f"incremental: {incremental['rebuilds']} rebuilds in "
        f"{incremental['seconds']:.2f}s (drift "
        f"{incremental['drift_rate']:.4f})"
    )
    print(
        f"strawman:    {strawman['rebuilds']} rebuilds in "
        f"{strawman['seconds']:.2f}s"
    )
    print(
        f"ratio {ratio:.1f}x fewer rebuilds; equal results: {equal}"
    )
    print(
        f"recovery with patch sets: restored="
        f"{with_patches['indexes_restored']} "
        f"replayed={with_patches['records_replayed']} "
        f"in {with_patches['seconds'] * 1e3:.1f} ms; without: rebuilt="
        f"{without_patches['indexes_rebuilt']} "
        f"(fallbacks={without_patches['index_fallbacks']}) in "
        f"{without_patches['seconds'] * 1e3:.1f} ms"
    )
    print(f"wrote {OUTPUT}")
    ok = equal and rebuild_skipped and ratio >= 5.0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
