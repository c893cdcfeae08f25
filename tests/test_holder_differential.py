"""Differential test of NUC upkeep: the maintainer against the brute-force rule.

A NUC index finds the rows that already hold a batch's values through
each partition's key order (:mod:`repro.storage.key_order`), which every
append, delete and cell update keeps current and a reopen rebuilds.
Here random interleavings of multi-row ``INSERT`` (duplicates inside the
batch, across partitions, and NULLs), ``DELETE``, updates of the indexed
column, ``CHECKPOINT`` plus reopen, snapshot pins and ``rebuild()`` run
on an INT64 and a STRING column of a durable database.  After every step
the patch sets must equal, rowid for rowid, what a pure-Python model
derives from the cells alone with the rule of ``test_maintenance.py``:

- a new row is a patch iff it is NULL or any other row holds its value;
  an older kept row holding a new row's value is demoted (NUC2);
- an updated row is a patch iff NULL or another row holds its new value,
  whose kept holders are demoted; otherwise it leaves the patch set;
- a delete drops rows and renumbers the rest; a rebuild patches exactly
  the NULLs and every member of a duplicate group.

A pin must keep answering with the patch sets of its moment while the
live side moves on.
"""

import random
from collections import Counter

import pytest

import repro
from repro.storage.schema import Field, Schema
from repro.types import DataType

PARTITIONS = 3
STEPS = 60
#: Enough rows that a partition's order keeps appended rows in its small
#: run for several inserts before folding them in; few enough distinct
#: values that batches collide with old rows and with each other.
ROWS = 240
DOMAIN = 200


class Model:
    """Cells per partition and the patched ``(partition, local)`` pairs."""

    def __init__(self, cells):
        self.cells = cells
        self.patched = set()
        self.rebuild()

    def rows(self):
        return [(p, r) for p, cells in enumerate(self.cells) for r in range(len(cells))]

    def holders(self, value, but=None):
        return {
            (p, r)
            for p, r in self.rows()
            if (p, r) != but and self.cells[p][r] == value
        }

    def rebuild(self):
        counts = Counter(v for column in self.cells for v in column if v is not None)
        self.patched = {
            (p, r)
            for p, r in self.rows()
            if self.cells[p][r] is None or counts[self.cells[p][r]] > 1
        }

    def insert(self, batch):
        last = self.cells[-1]
        start = len(last)
        new_values = {v for v in batch if v is not None}
        old = set(self.rows())
        last.extend(batch)
        counts = Counter(v for column in self.cells for v in column if v is not None)
        for p, r in old:
            if self.cells[p][r] in new_values:
                self.patched.add((p, r))
        for local, value in enumerate(batch, start):
            if value is None or counts[value] > 1:
                self.patched.add((len(self.cells) - 1, local))

    def delete(self, doomed):
        doomed = set(doomed)
        patched = set()
        for p, column in enumerate(self.cells):
            kept = [r for r in range(len(column)) if (p, r) not in doomed]
            patched |= {(p, n) for n, r in enumerate(kept) if (p, r) in self.patched}
            self.cells[p] = [column[r] for r in kept]
        self.patched = patched

    def update(self, row, value):
        p, r = row
        self.cells[p][r] = value
        others = set() if value is None else self.holders(value, but=row)
        if value is None or others:
            self.patched |= {row} | others
        else:
            self.patched.discard(row)


def located(table, rowid):
    for partition in table.partitions:
        start, stop = partition.rowid_range
        if start <= rowid < stop:
            return partition.partition_id, rowid - start
    raise AssertionError(rowid)


def state(catalog):
    """Cells and patched pairs of ``t`` / ``pu`` as *catalog* holds them."""
    table = catalog.table("t")
    index = catalog.index("pu")
    cells = [p.column("c").to_pylist() for p in table.partitions]
    patched = {
        (p.partition_id, int(r))
        for p in table.partitions
        for r in index.partition_patches(p.partition_id).rowids()
    }
    return cells, patched


def sql_literal(value):
    if value is None:
        return "NULL"
    return f"'{value}'" if isinstance(value, str) else str(value)


@pytest.mark.parametrize("dtype", [DataType.INT64, DataType.STRING])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_patch_sets_follow_the_brute_force_rule(tmp_path, dtype, seed):
    rng = random.Random(seed)

    def value():
        if rng.random() < 0.15:
            return None
        number = rng.randrange(DOMAIN)
        return f"v{number}" if dtype == DataType.STRING else number

    initial = [value() for _ in range(ROWS)]
    db = repro.connect(tmp_path / "db")
    db.create_table_from_pydict(
        "t", Schema([Field("c", dtype)]), {"c": initial}, partition_count=PARTITIONS
    )
    db.create_patch_index("pu", "t", "c", "unique", mode="identifier")
    model = Model([p.column("c").to_pylist() for p in db.table("t").partitions])
    pin = None  # (view, cells, patched) of a pin held across one step
    try:
        for step in range(STEPS):
            table = db.table("t")
            roll = rng.random()
            reopen = False
            if roll < 0.4:
                batch = [value() for _ in range(rng.randrange(1, 6))]
                batch += rng.sample(batch, rng.randrange(2))  # an in-batch twin
                rows = ", ".join(f"({sql_literal(v)})" for v in batch)
                db.sql(f"INSERT INTO t VALUES {rows}")
                model.insert(batch)
            elif roll < 0.55 and table.row_count:
                count = min(table.row_count, rng.randrange(1, 4))
                doomed = rng.sample(range(table.row_count), count)
                model.delete([located(table, rowid) for rowid in doomed])
                table.delete_rowids(doomed)
            elif roll < 0.75 and table.row_count:
                rowid, new = rng.randrange(table.row_count), value()
                model.update(located(table, rowid), new)
                table.update_rowid(rowid, "c", new)
            elif roll < 0.82:
                db.checkpoint()
                reopen = True
            elif roll < 0.9:
                db.catalog.index("pu").rebuild()
                model.rebuild()
            elif pin is None:
                view = db.snapshot()
                pin = (view, [list(c) for c in model.cells], set(model.patched))
                continue
            if pin is not None:
                view, cells, patched = pin
                assert state(view.catalog) == (cells, patched), f"pin, step {step}"
                view.close()
                pin = None
            if reopen:
                db.close()
                db = repro.connect(tmp_path / "db")
            assert state(db.catalog) == (model.cells, model.patched), f"step {step}"
    finally:
        if pin is not None:
            pin[0].close()
        db.close()
