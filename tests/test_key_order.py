"""A partition's key order answers like a comparison against every row."""

import random

import numpy as np
import pytest

from repro.storage import key_order
from repro.storage.column import ColumnVector
from repro.storage.key_order import KeyOrder
from repro.storage.partition import Partition
from repro.storage.schema import Field, Schema
from repro.types import DataType


def draw(rng, kind):
    if kind == "int":
        return rng.randrange(30)
    if kind == "float":
        return rng.choice([float(rng.randrange(30)), float("nan"), -0.0, 0.0])
    return f"k{rng.randrange(30)}"


def as_array(items, kind):
    if kind == "string":
        array = np.empty(len(items), dtype=object)
        array[:] = items
        return array
    return np.array(items, dtype=np.int64 if kind == "int" else np.float64)


def found(order, values, needles, stop):
    which, rows = order.holders(values, needles, stop)
    return sorted(zip(which.tolist(), rows.tolist()))


def brute(values, needles, stop):
    return sorted(
        (i, r)
        for r in range(stop)
        for i, needle in enumerate(needles.tolist())
        if values[r] == needle
    )


@pytest.mark.parametrize("kind", ["int", "float", "string"])
@pytest.mark.parametrize("seed", range(4))
def test_holders_are_the_rows_holding_a_needle(kind, seed):
    """Through appends (merged into the small run, folded into the large
    one), deletes and single-row updates, in any interleaving."""
    rng = random.Random(seed)
    items = [draw(rng, kind) for _ in range(60)]
    order = KeyOrder.build(as_array(items, kind), 40)
    for _ in range(120):
        values = as_array(items, kind)
        roll = rng.random()
        if roll < 0.3:
            items += [draw(rng, kind) for _ in range(rng.randrange(1, 8))]
            values = as_array(items, kind)
            order = order.covering(values, rng.randrange(order.stop, len(items) + 1))
        elif roll < 0.45 and len(items) > 1:
            keep = np.array([rng.random() > 0.1 for _ in items])
            order = order.after_delete(keep)
            items = [item for item, kept in zip(items, keep) if kept]
        elif roll < 0.6 and items:
            row = rng.randrange(len(items))
            old = values
            items[row] = draw(rng, kind)
            order = order.after_update(old, as_array(items, kind), row)
        values = as_array(items, kind)
        needles = np.unique(as_array([draw(rng, kind) for _ in range(5)], kind))
        if kind == "float":
            needles = needles[~np.isnan(needles)]
        for stop in (order.stop, rng.randrange(order.stop + 1)):
            assert found(order, values, needles, stop) == brute(values, needles, stop)


def test_a_hash_collision_is_not_a_holder(monkeypatch):
    def collide(values):
        return np.zeros(len(values), dtype=np.int64)

    monkeypatch.setattr(key_order, "_hashes", collide)
    values = as_array(["a", "b", "c", "b"], "string")
    order = KeyOrder.build(values, 3).covering(values, 4)
    needles = as_array(["b", "z"], "string")
    assert found(order, values, needles, 4) == [(0, 1), (0, 3)]


def test_a_nan_needle_is_held_by_no_row():
    values = np.array([np.nan, 1.0, np.nan])
    order = KeyOrder.build(values, 3)
    assert found(order, values, np.array([1.0, np.nan]), 3) == [(0, 1)]


def test_partition_leaves_out_null_rows_and_copies_carry_no_order():
    schema = Schema([Field("c", DataType.INT64)])
    column = ColumnVector.from_pylist(DataType.INT64, [None, 0, 5, None])
    partition = Partition(0, schema, {"c": column}, base_rowid=0)
    which, rows = partition.key_holders("c", np.array([0, 5]), 4)
    assert sorted(zip(which.tolist(), rows.tolist())) == [(0, 1), (1, 2)]
    assert partition.copy()._key_orders == {}


def test_dropping_the_last_nuc_on_a_column_frees_its_orders():
    import repro

    db = repro.connect()
    db.sql("CREATE TABLE t (u BIGINT, w BIGINT) PARTITIONS 2")
    db.sql("INSERT INTO t VALUES " + ", ".join(f"({i}, {i})" for i in range(40)))
    db.sql("CREATE PATCHINDEX a ON t(u) TYPE UNIQUE")
    db.sql("CREATE PATCHINDEX b ON t(u) TYPE UNIQUE")
    db.sql("CREATE PATCHINDEX c ON t(w) TYPE UNIQUE")
    db.sql("INSERT INTO t VALUES (3, 3), (99, 99)")
    partitions = db.table("t").partitions

    def ordered() -> list[set[str]]:
        return [set(partition._key_orders) for partition in partitions]

    assert ordered() == [{"u", "w"}, {"u", "w"}]
    db.sql("DROP PATCHINDEX a")  # b still looks u up
    assert ordered() == [{"u", "w"}, {"u", "w"}]
    db.sql("DROP PATCHINDEX b")
    assert ordered() == [{"w"}, {"w"}]
    db.sql("DROP PATCHINDEX c")
    assert ordered() == [set(), set()]
    db.sql("CREATE PATCHINDEX d ON t(u) TYPE UNIQUE")
    db.sql("INSERT INTO t VALUES (5, 5)")
    assert ordered() == [{"u"}, {"u"}]
    assert db.catalog.index("d").patch_count == 4  # 3, 3, 5, 5
