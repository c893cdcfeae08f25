#!/usr/bin/env python3
"""Per-stage medians of in-process plan-cache hits of ``point_reads``' shape.

Usage::

    PYTHONPATH=src python tools/point_read_stages.py [--hits N] [--seed S]
    PYTHONPATH=src python tools/point_read_stages.py --baseline OTHER/src

Builds ``bench_e2e``'s ``point_reads`` table in memory (200 000 rows,
four partitions), plans its statement shape once, then runs *N* hits of
it with varying literals.  Each hit is taken apart by hand, the way
``Session.sql`` runs it, and every stage is timed:

- ``tokenize``: the statement's tokens;
- ``cache+bind``: the plan-cache lookup and this execution's values;
- ``physical``: taking the entry's verified tree (bound to the catalog's
  tables by name), setting its values and opening it (block pruning runs
  at scan open);
- ``collect``: drain and close, and put the tree back;

beside one plain ``Database.sql`` of another statement of the same shape
(``Session.sql``).  ``--baseline OTHER/src`` compares this tree with
OTHER (say a checkout of the parent commit): each tree's own copy of
this script (``<tree>/tools/point_read_stages.py``) runs with ``--json``
in :data:`LEGS` subprocesses a tree that split the hits, taken in turn
(baseline, this tree, this tree, baseline, ...) so a change of host
speed falls on both sides alike; each column is the median of its legs'
medians, printed beside their ratio.  Pointed at this tree itself, every
ratio reads about 1.  ``bench_e2e/tracing.py`` plans outside the cache, so
its ``plan.physical_us`` / ``check.verify_us`` rows cannot show what a
hit costs; this probe can.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("tokenize", "cache+bind", "physical", "collect", "Session.sql")

#: Subprocesses a tree under ``--baseline``, each running its share of
#: the hits.
LEGS = 6


def measure(hits: int, seed: int) -> dict[str, float]:
    """Median microseconds per stage over *hits* cache hits."""
    sys.path.insert(0, str(ROOT / "bench_e2e"))
    import repro
    from repro.sql import session
    from repro.sql.lexer import tokenize
    from workloads import PointReads

    workload = PointReads(seed)
    workload.generate()
    database = repro.connect()
    workload.build(database, lambda name: nullcontext())
    texts = [statement.sql for statement in workload.round(0, 2 * hits + 2)]
    catalog = database.catalog
    cache = catalog.plan_cache
    database.sql(texts[0])  # the miss
    database.sql(texts[1])  # the first hit
    clock = time.perf_counter
    samples: dict[str, list[float]] = {stage: [] for stage in STAGES}
    for number in range(hits):
        text, plain = texts[2 + 2 * number], texts[3 + 2 * number]
        t0 = clock()
        tokens = tokenize(text)
        t1 = clock()
        entry, versions, values, __ = session._optimized_plan(database, tokens, None)
        t2 = clock()
        tree = cache.take_tree(entry, versions, catalog)
        if values is not None:
            tree.parameters.values = values
        tree.root.open()
        t3 = clock()
        tree.root.drain()
        tree.root.close()
        cache.put_tree(entry, tree)
        t4 = clock()
        database.sql(plain)
        t5 = clock()
        spans = (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)
        for stage, seconds in zip(STAGES, spans):
            samples[stage].append(seconds * 1e6)
    return {stage: statistics.median(values) for stage, values in samples.items()}


def leg(src: Path, hits: int, seed: int) -> dict[str, float]:
    """The stage medians of *hits* hits, measured by the copy of this
    script in the tree whose source directory is *src*."""
    output = subprocess.run(
        [sys.executable, str(src.parent / "tools" / Path(__file__).name),
         "--json", "--hits", str(hits), "--seed", str(seed)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        check=True, capture_output=True, text=True,
    ).stdout
    measured: dict[str, float] = json.loads(output)
    return measured


def compare(baseline: Path, hits: int, seed: int) -> dict[str, dict[str, float]]:
    """Both trees' stage medians over *hits* hits, split into alternated
    legs (:data:`LEGS` a tree): the median of each tree's leg medians."""
    trees = {"baseline": baseline, "this tree": ROOT / "src"}
    legs = min(LEGS, hits)
    results: dict[str, list[dict[str, float]]] = {name: [] for name in trees}
    for number in range(legs):
        share = hits // legs + (number < hits % legs)
        names = list(trees) if number % 2 == 0 else list(trees)[::-1]
        for name in names:
            results[name].append(leg(trees[name], share, seed))
    return {
        name: {
            stage: statistics.median(run[stage] for run in runs) for stage in STAGES
        }
        for name, runs in results.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hits", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--baseline", help="another tree's src directory")
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One CPU, as bench_e2e/run.py pins itself: cross-CPU wake-ups are
    # the largest noise on a small VM.  The legs inherit it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.baseline:
        columns = compare(Path(args.baseline).resolve(), args.hits, args.seed)
    else:
        current = measure(args.hits, args.seed)
        if args.json:
            print(json.dumps(current))
            return 0
        columns = {"this tree": current}
    legs = f", {min(LEGS, args.hits)} alternated legs a tree" if args.baseline else ""
    print(f"median us over {args.hits} hits, seed {args.seed}{legs}")
    print("stage".ljust(14) + "".join(name.rjust(12) for name in columns)
          + ("ratio".rjust(9) if args.baseline else ""))
    for stage in STAGES:
        row = [column[stage] for column in columns.values()]
        line = stage.ljust(14) + "".join(f"{value:12.1f}" for value in row)
        if args.baseline:
            line += f"{row[1] / row[0]:9.2f}" if row[0] else "        -"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
