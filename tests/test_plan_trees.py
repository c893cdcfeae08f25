"""Pooled plan trees: a cache hit reruns its entry's verified tree.

A tree goes back to its entry's slot after every unprofiled run that
completed, so it must come back holding nothing of that run — no column,
batch or rowid array pinned until the next hit, and no table, partition,
index or patch set of the catalog it ran on — and a run that another
reader's run overlaps, or an instrumented one, must never share or
return it.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.patch_index import PatchIndex
from repro.core.patches import PatchSet
from repro.exec.batch import RecordBatch
from repro.exec.operators import HashJoin, MergeJoin, PatchCount, PatchSelect
from repro.exec.result import collect
from repro.plan.optimizer import Optimizer, OptimizerOptions
from repro.plan.physical import PhysicalPlanner
from repro.sql.binder import Binder
from repro.sql.parser import parse_statement
from repro.storage.column import ColumnVector
from repro.storage.partition import Partition
from repro.storage.table import Table

ROWS = 3000
FORCED = OptimizerOptions(always_rewrite=True)


@pytest.fixture
def db():
    database = repro.connect()
    database.sql("CREATE TABLE t (k BIGINT, u BIGINT, s BIGINT) PARTITIONS 2")
    rows = ", ".join(
        f"({i}, {i if i % 50 else 7}, {i if i % 60 else 0})" for i in range(ROWS)
    )
    database.sql(f"INSERT INTO t VALUES {rows}")
    database.sql("CREATE TABLE d (dk BIGINT, w BIGINT)")
    database.sql(
        "INSERT INTO d VALUES " + ", ".join(f"({i}, {i % 7})" for i in range(0, ROWS, 3))
    )
    database.sql("CREATE PATCHINDEX pi_u ON t(u) TYPE UNIQUE")
    database.sql("CREATE PATCHINDEX pi_s ON t(s) TYPE SORTED")
    return database


def idle_trees(database) -> list:
    return [
        tree
        for entry in database.catalog.plan_cache._entries.values()
        for tree in entry.idle
    ]


def operators(root):
    yield root
    for child in root.children():
        yield from operators(child)


def _flatten(value):
    if isinstance(value, (list, tuple, set)):
        for item in value:
            yield from _flatten(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _flatten(item)
    else:
        yield value


#: What an idle tree must not hold: a run's buffers, or the catalog's
#: storage, which would keep a snapshot copy alive.
HELD = (
    np.ndarray, RecordBatch, ColumnVector, Table, Partition, PatchIndex, PatchSet
)


def run_state(root) -> list[str]:
    """``Operator.attribute`` of every array, column, batch, table,
    partition, index or patch set a tree's operators still hold."""
    return [
        f"{type(operator).__name__}.{name}"
        for operator in operators(root)
        for name, value in vars(operator).items()
        if any(isinstance(item, HELD) for item in _flatten(value))
    ]


def fresh_rows(catalog, query, options=None):
    logical = Binder(catalog).bind_select(parse_statement(query))
    optimized = Optimizer(catalog, options).optimize(logical)
    return collect(PhysicalPlanner().plan(optimized)).to_pylist()


SHAPES = {
    "distinct": ("SELECT COUNT(DISTINCT u) AS n FROM t", (PatchCount, PatchSelect)),
    "filtered distinct": (
        "SELECT DISTINCT u FROM t WHERE k BETWEEN 1000 AND 2500",
        (PatchSelect,),
    ),
    "sort": ("SELECT s FROM t WHERE k < 2000 ORDER BY s", (PatchSelect,)),
    "join": (
        "SELECT COUNT(*) AS n, SUM(d.w) AS sw FROM t JOIN d ON t.s = d.dk",
        (PatchSelect, (HashJoin, MergeJoin)),
    ),
}


class TestAPooledTreeHoldsNoRunState:
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_closed_tree_releases_every_buffer(self, db, shape):
        query, expected = SHAPES[shape]
        first = db.sql(query, optimizer_options=FORCED).to_pylist()
        again = db.sql(query, optimizer_options=FORCED).to_pylist()
        assert first == again == fresh_rows(db.catalog, query, FORCED)
        [tree] = idle_trees(db)
        kinds = [type(operator) for operator in operators(tree.root)]
        for kind in expected:
            assert any(issubclass(found, kind) for found in kinds), (shape, kinds)
        assert run_state(tree.root) == []
        tree.bind(db.catalog)  # as a hit takes it: the check sees that
        assert "TableScan.table" in run_state(tree.root)
        tree.bind(None)


class TestConcurrentHits:
    def test_two_readers_one_shape_one_snapshot(self, db):
        """Two threads run one cached shape with their own literals, 500
        times each, on one pin: the one idle tree goes to one of them at
        a time, the other builds its own, and every answer equals a
        freshly planned one.  EXPLAIN ANALYZE and ``profile=True`` between
        hits instrument a tree of their own and never return it to the
        slot."""
        query = "SELECT COUNT(*) AS n, SUM(u) AS x FROM t WHERE k BETWEEN {} AND {}"
        failures: list[str] = []
        runs = 500

        def read(seed: int, view) -> None:
            rng = random.Random(seed)
            try:
                for number in range(runs):
                    low = rng.randrange(ROWS + 50)
                    text = query.format(low, low + rng.randrange(200))
                    if number % 50 == 25:
                        view.sql("EXPLAIN ANALYZE " + text)
                    if number % 50 == 40:
                        assert view.sql(text, profile=True).profile is not None
                    served = view.sql(text).to_pylist()
                    expected = fresh_rows(view.catalog, text)
                    if served != expected:
                        failures.append(f"{text}: {served} != {expected}")
            except Exception as error:  # pragma: no cover - reported below
                failures.append(f"reader {seed}: {error!r}")

        before = db.metrics().export()["counters"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with db.snapshot() as view:
                threads = [
                    threading.Thread(target=read, args=(seed, view))
                    for seed in (1, 2)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=300)
                assert not any(thread.is_alive() for thread in threads)
                [tree] = idle_trees(view)
                for operator in operators(tree.root):
                    # The profiler wraps open / next_batch per instance.
                    assert "next_batch" not in vars(operator)
                    assert "open" not in vars(operator)
                assert run_state(tree.root) == []
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        after = db.metrics().export()["counters"]

        def grew(name: str) -> int:
            key = f"plan.cache.{name}"
            return int(after.get(key, 0) - before.get(key, 0))

        explains = 2 * 2 * (runs // 50)  # EXPLAIN ANALYZE and profile=True
        assert grew("tree_reuses") + grew("tree_builds") == 2 * runs + explains
        assert grew("tree_builds") >= 1 + explains


class TestPointReadStages:
    def test_the_probe_times_hits_through_this_trees_cache(self):
        """``tools/point_read_stages.py`` takes and puts back pooled trees
        by hand.  It runs in a process of its own: it pins that process to
        one CPU."""
        root = Path(__file__).resolve().parent.parent
        tool = root / "tools" / "point_read_stages.py"
        done = subprocess.run(
            [sys.executable, str(tool), "--hits", "3"],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == "median us over 3 hits, seed 1"
        stages = {line.split()[0]: float(line.split()[1]) for line in lines[2:]}
        assert list(stages) == [
            "tokenize", "cache+bind", "physical", "collect", "Session.sql"
        ]
        assert all(value > 0 for value in stages.values())

    def test_a_baseline_runs_in_alternated_legs(self):
        """Against a baseline, both trees run as subprocess legs that
        split the hits; here the baseline is this tree itself."""
        root = Path(__file__).resolve().parent.parent
        tool = root / "tools" / "point_read_stages.py"
        done = subprocess.run(
            [sys.executable, str(tool), "--hits", "2",
             "--baseline", str(root / "src")],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == "median us over 2 hits, seed 1, 2 alternated legs a tree"
        assert lines[1].split() == ["stage", "baseline", "this", "tree", "ratio"]
        rows = [line.split() for line in lines[2:]]
        assert [row[0] for row in rows] == [
            "tokenize", "cache+bind", "physical", "collect", "Session.sql"
        ]
        assert all(float(value) > 0 for row in rows for value in row[1:])
