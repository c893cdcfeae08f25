"""A served statement does not re-fault its working set from the kernel.

``python -m repro serve`` keeps the buffers a statement frees in its
heap (``repro.__main__.keep_heap``), so the next statement reuses them
instead of mapping fresh pages and faulting each one in.  The paper's
sort rewrite merges the kept rows with the sorted patch side: with
glibc's default thresholds its served form took ~1 700 minor faults a
statement at 300 000 rows; run in process it took none, because the
test process had already raised the thresholds.  So this reads the
faults of a server in a process of its own, from outside it
(``/proc/<pid>/stat``) and from its ``server.statement.minor_faults``
histogram.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.gen.synthetic import sorted_with_exceptions

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the heap policy and the fault counts are glibc-on-Linux only",
)

ROWS = 300_000
QUERY = "SELECT COUNT(*) AS n FROM (SELECT s FROM t ORDER BY s) AS x"
WARM_UP = 3
MEASURED = 5
#: Faults a statement may take once warm (~1 700 without the policy).
BOUND = 64


def minor_faults(pid: int) -> int:
    """The process's minor faults so far: field 10 of ``/proc/<pid>/stat``,
    counted after the parenthesised command name."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    return int(stat.rsplit(")", 1)[1].split()[7])


@pytest.fixture
def served(tmp_path):
    """A ``python -m repro serve`` child over a nearly sorted column with a
    SORTED PatchIndex; yields (pid, client)."""
    root = tmp_path / "db"
    db = repro.connect(root)
    db.create_table_from_pydict(
        "t",
        repro.Schema([repro.Field("s", repro.DataType.INT64)]),
        {"s": sorted_with_exceptions(ROWS, 0.01, seed=7).values},
    )
    db.sql("CREATE PATCHINDEX pi_s ON t(s) TYPE SORTED")
    db.checkpoint()
    db.close()
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent))
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--data-dir", str(root), "--port", "0", "--threads", "1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        text=True,
    )
    try:
        ready = process.stdout.readline()
        assert "repro://" in ready, ready
        with repro.connect(ready.split()[4]) as client:
            yield process.pid, client
    finally:
        process.kill()
        process.wait()
        process.stdout.close()


def test_a_warm_sort_rewrite_takes_almost_no_faults(served):
    pid, client = served
    assert "MergeUnion" in client.explain(QUERY)
    for _ in range(WARM_UP):
        assert client.sql(QUERY).scalar() == ROWS
    per_statement = []
    for _ in range(MEASURED):
        before = minor_faults(pid)
        client.sql(QUERY)
        per_statement.append(minor_faults(pid) - before)
    assert sorted(per_statement)[MEASURED // 2] < BOUND, per_statement
    histogram = json.loads(client.metrics().to_json())["histograms"][
        "server.statement.minor_faults"
    ]
    # The EXPLAIN is a statement too: one sql request like the others.
    assert histogram["count"] == 1 + WARM_UP + MEASURED
    # Buckets are powers of 4, BOUND one of them: the warm statements
    # land at or below it.
    small = sum(
        count
        for bucket, count in histogram["buckets"].items()
        if float(bucket.removeprefix("le_")) <= BOUND
    )
    assert small >= MEASURED, histogram
