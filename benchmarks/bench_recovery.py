"""Checkpoint and crash-recovery cost vs row count.

Measures the durable engine's two end-of-life paths over a nearly
unique column carrying a NUC PatchIndex:

- ``checkpoint``: write one segment file per partition and install the
  manifest (tables, partition files, index definitions and the
  PatchIndex's patch sets) as the log's head record, with one rename;
- ``recover``: reopen the directory cold — read the log once, load the
  segments the head names (block sketches included), restore the
  PatchIndex from the head's patch sets (discovery from data, paper
  §V, is the fallback when they are unusable) and replay the records
  after the head: one append of 5 % more rows, which the index
  re-classifies.

Results are sanity-checked (identical COUNT DISTINCT before and after,
a recovered index), and the sweep lands in ``BENCH_recovery.json``.

Run:  PYTHONPATH=src python benchmarks/bench_recovery.py

Knobs: ``REPRO_BENCH_RECOVERY_ROWS`` — comma-separated row counts
(default ``10000,100000,1000000``).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.gen import unique_with_exceptions
from repro.storage.database import Database
from repro.storage.schema import Field, Schema
from repro.types import DataType

ROW_COUNTS = [
    int(part)
    for part in os.environ.get(
        "REPRO_BENCH_RECOVERY_ROWS", "10000,100000,1000000"
    ).split(",")
]
EXCEPTION_RATE = 0.001
TAIL_FRACTION = 0.05  # rows appended after the checkpoint (WAL tail)
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_recovery.json"
QUERY = "SELECT COUNT(DISTINCT c) AS n FROM t"


def build(root: Path, rows: int) -> tuple[float, dict, list]:
    """Create, checkpoint, append a tail; return timings + truth."""
    database = Database(path=root, parallelism=1)
    table = database.create_table(
        "t", Schema([Field("c", DataType.INT64)]), partition_count=4
    )
    table.load_columns(
        {"c": unique_with_exceptions(rows, EXCEPTION_RATE, seed=20)}
    )
    database.create_patch_index("pi", "t", "c", kind="unique")
    started = time.perf_counter()
    info = database.checkpoint()
    checkpoint_s = time.perf_counter() - started
    tail = max(1, int(rows * TAIL_FRACTION))
    table.insert_rows([[rows + i] for i in range(tail)])
    truth = database.sql(QUERY).to_pylist()
    database.close()
    return checkpoint_s, info, truth


def reopen(root: Path) -> tuple[float, "Database"]:
    started = time.perf_counter()
    database = Database(path=root, parallelism=1)
    return time.perf_counter() - started, database


def main() -> int:
    series = []
    failures = 0
    for rows in ROW_COUNTS:
        root = Path(tempfile.mkdtemp(prefix="repro-bench-recovery-"))
        try:
            checkpoint_s, info, truth = build(root, rows)
            segment_bytes = info["segment_bytes"]
            detail = info["table_details"]["t"]
            recover_s, database = reopen(root)
            recovered = database.sql(QUERY).to_pylist()
            index = database.catalog.index("pi")
            ok = recovered == truth and index.provenance == "recovery"
            failures += 0 if ok else 1
            metrics = database.metrics().export()
            replayed = metrics["gauges"].get("recovery.replayed_records", 0)
            database.close()
            series.append(
                {
                    "rows": rows,
                    "checkpoint_s": checkpoint_s,
                    "segment_bytes": segment_bytes,
                    "encoded_ratio": detail["encoded_ratio"],
                    "columns": detail["columns"],
                    "recover_s": recover_s,
                    "wal_records_replayed": replayed,
                    "identical_results": ok,
                }
            )
            encodings = "+".join(
                sorted(detail["columns"]["c"]["encodings"])
            )
            print(
                f"rows={rows:>9}  checkpoint {checkpoint_s * 1e3:8.1f} ms  "
                f"({segment_bytes / 1e6:7.2f} MB, "
                f"ratio {detail['encoded_ratio']:.3f}, {encodings})  "
                f"recover {recover_s * 1e3:8.1f} ms  "
                f"replayed={replayed}  {'ok' if ok else 'MISMATCH'}"
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)

    payload = {
        "exception_rate": EXCEPTION_RATE,
        "tail_fraction": TAIL_FRACTION,
        "query": QUERY,
        "series": series,
        "identical_results": failures == 0,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
