"""Smoke test of the benchmark itself (not part of tier-1's ``tests/``).

Run with ``python -m pytest bench_e2e/tests``.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO = BENCH_DIR.parent
MANIFEST = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_quick(*extra: str) -> tuple[subprocess.CompletedProcess, float]:
    """Run ``run.py --quick`` in a session of its own; nothing may be
    left in that session once it has exited."""
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "run.py"), "--quick", *extra],
        cwd=str(REPO), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    stdout, stderr = process.communicate(timeout=120)
    elapsed = time.perf_counter() - started
    assert session_members(process.pid) == []
    completed = subprocess.CompletedProcess(
        process.args, process.returncode, stdout, stderr
    )
    return completed, elapsed


def session_members(session: int) -> list[str]:
    """Command lines of the processes, zombies included, in *session*."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            # "pid (comm) state ppid pgrp session ..."
            if int(stat.rsplit(")", 1)[1].split()[3]) == session:
                members.append((entry / "cmdline").read_bytes().decode() or stat)
        except OSError:
            continue
    return members


def leftovers() -> dict[str, set[str]]:
    """Server processes, data directories and shm segments now alive."""
    servers = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            words = (entry / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        if b"serve" in words and any(b"bench_e2e/out/data-" in w for w in words):
            servers.add(entry.name)
    return {
        "servers": servers,
        "directories": {p.name for p in (BENCH_DIR / "out").glob("data-*")},
        "shm": set(os.listdir("/dev/shm")),
    }


def printed_metrics(stdout: str) -> dict[str, dict[str, float]]:
    """``{workload: {metric: value}}`` from the human-readable table."""
    table: dict[str, dict[str, float]] = {}
    for line in stdout.splitlines():
        if line.startswith("workload "):
            current = table.setdefault(line.split()[1].rstrip(":"), {})
        elif line.startswith("  "):
            name, value, _unit = line.split()
            current[name] = float(value)
    return table


def test_quick_run_matches_the_manifest_and_leaves_nothing_behind():
    before = leftovers()
    completed, elapsed = run_quick()
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert elapsed < 30.0
    table = printed_metrics(completed.stdout)
    assert list(table) == [w["name"] for w in MANIFEST["workloads"]]
    expected = [m["name"] for m in MANIFEST["end_to_end"]]
    for workload, metrics in table.items():
        assert NAME.fullmatch(workload)
        assert list(metrics) == expected
        for name, value in metrics.items():
            assert NAME.fullmatch(name)
            assert math.isfinite(value) and value > 0, (workload, name, value)
    last = json.loads(completed.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert leftovers() == before


def test_traced_quick_run_emits_every_per_layer_metric():
    before = leftovers()
    completed, _ = run_quick("--trace", "1", "--workload", "mixed_ingest")
    assert completed.returncode == 0, completed.stderr[-2000:]
    last = json.loads(completed.stdout.splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert {n: m["unit"] for n, m in last["metrics"].items()} == declared
    assert all(math.isfinite(m["value"]) for m in last["metrics"].values())
    trace = json.loads((BENCH_DIR / "out" / "trace.json").read_text())
    assert trace["environment"]["seed"] == 0
    assert {"name", "start", "end", "parent", "statement"} <= set(
        trace["spans"]["mixed_ingest"][0]
    )
    assert leftovers() == before


def test_stop_descendants_reaps_orphaned_grandchildren():
    """What the traced pass's worker pool leaves at full scale: children
    of a child that has gone, still running when the benchmark is done."""
    script = (
        "import subprocess, sys, time\n"
        f"sys.path[:0] = [{str(BENCH_DIR)!r}, {str(REPO / 'src')!r}]\n"
        "import harness\n"
        "harness.adopt_orphans()\n"
        "shell = subprocess.Popen(['sh', '-c', 'sleep 300 & sleep 300 & wait'])\n"
        "time.sleep(0.5)\n"
        "shell.kill(); shell.wait()\n"
        "time.sleep(0.1)\n"
        "assert len(harness._children()) == 2, harness._children()\n"
        "harness.stop_descendants()\n"
        "assert harness._children() == []\n"
    )
    process = subprocess.Popen(
        [sys.executable, "-c", script], cwd=str(REPO), start_new_session=True
    )
    assert process.wait(timeout=60) == 0
    assert session_members(process.pid) == []
