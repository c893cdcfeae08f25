"""Three doors, one state.

One scripted history is stopped after every step; at each stop three
doors must yield tables equal rowid-for-rowid (values and validity) to
the live database and patch sets equal to the live ones — and to a
from-scratch ``PatchIndex.create`` over the live tables, which the
history is scripted to keep minimal (no maintenance drift), so a
restore, a rebuild-from-data fallback and a snapshot copy all have to
land on the same rowids:

- ``reopen``: a copy of the directory, reopened — recovery, the one
  reconstruction ``storage/materialize.py`` performs;
- ``cold``: that reopened copy's first snapshot, a copy of tables whose
  columns are still lazy over the recovered generation's segments;
- ``advanced``: the live database's own snapshot, pinned at the stop
  and read only after the database advanced one more step past it.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field

import pytest

import repro
from repro.core.patch_index import PatchIndex
from repro.storage.manifest import patches_path, read_manifest
from repro.storage.materialize import FALLBACK_REASONS
from repro.storage.schema import Field, Schema
from repro.types import DataType

T_SCHEMA = Schema(
    [
        Field("u", DataType.INT64),  # nearly unique
        Field("s", DataType.INT64),  # nearly sorted
        Field("v", DataType.INT64),  # indexed until pi_v is dropped
        Field("name", DataType.STRING),  # never indexed, carries NULLs
    ]
)
N = 240


def t_rows(start: int, stop: int) -> dict:
    return {
        "u": list(range(start, stop)),
        "s": [10 * i for i in range(start, stop)],
        "v": list(range(start, stop)),
        "name": [None if i % 7 == 0 else f"n{i % 5}" for i in range(start, stop)],
    }


# -- the history --------------------------------------------------------------


def load(db):
    table = db.create_table("t", T_SCHEMA, partition_count=2, block_size=64)
    data = t_rows(0, N)
    data["u"][17] = data["u"][3]  # one duplicate pair
    data["s"][100], data["s"][101] = 5, None  # an outlier and a NULL
    table.load_columns(
        {
            f.name: repro.ColumnVector.from_pylist(f.dtype, data[f.name])
            for f in T_SCHEMA
        }
    )
    db.sql("CREATE TABLE d (k BIGINT)")
    db.sql("INSERT INTO d VALUES (1), (2), (2), (3)")


def create_indexes(db):
    db.sql("CREATE PATCHINDEX pi_u ON t(u) TYPE UNIQUE")
    db.sql("CREATE PATCHINDEX pi_s ON t(s) TYPE SORTED")
    db.sql("CREATE PATCHINDEX pi_v ON t(v) TYPE SORTED")
    db.sql("CREATE PATCHINDEX pi_k ON d(k) TYPE UNIQUE")


def checkpoint(db):
    db.checkpoint()


def insert(db):
    table = db.table("t")
    top = table.row_count + 1000
    table.insert_rows(
        [
            [top, 10 * top, top, "fresh"],
            [top + 1, 10 * top + 1, top + 1, None],
            [7, 3, top + 2, "dup-and-outlier"],  # u=7 exists; s breaks the tail
        ]
    )


def delete(db):
    # Kept rows only: deleting half of a duplicate pair would leave the
    # maintained patch set (correctly) larger than a fresh discovery's.
    db.table("t").delete_rowids([40, 41, 150])


def update_indexed(db):
    table = db.table("t")
    table.update_rowid(60, "u", 61)  # collides with the kept row 61
    table.update_rowid(200, "u", 99_999)  # fresh value, stays kept
    table.update_rowid(30, "s", 1)  # breaks sortedness in partition 0


def update_unindexed(db):
    db.table("t").update_rowid(5, "name", "renamed")
    db.table("t").update_rowid(6, "name", None)


def drop_and_recreate_table(db):
    db.sql("DROP TABLE d")
    db.sql("CREATE TABLE d (k BIGINT, w VARCHAR(8))")
    db.sql("INSERT INTO d VALUES (9, 'a'), (9, 'b'), (10, NULL)")
    db.sql("CREATE PATCHINDEX pi_k ON d(k) TYPE UNIQUE")


def drop_index(db):
    db.sql("DROP PATCHINDEX pi_v")


def more_dml(db):
    table = db.table("t")
    top = table.row_count + 5000
    table.insert_rows([[top, 10 * top, 0, "late"]])
    table.delete_rowids([90])
    table.update_rowid(10, "v", -1)  # no index on v any more
    db.sql("INSERT INTO d VALUES (11, 'c')")


def current_patches_file(db):
    return patches_path(
        db.engine.root, read_manifest(db.engine.root).checkpoint_lsn
    )


def delete_patches_file(db):
    path = current_patches_file(db)
    STASH["patches"] = path.read_text(encoding="utf-8")
    path.unlink()


def corrupt_patches_file(db):
    # Put the file back with one rowid moved but the old checksums.
    raw = json.loads(STASH["patches"])
    for entry in raw["indexes"].values():
        rowids = entry["partitions"][0]["rowids"]
        entry["partitions"][0]["rowids"] = [r + 1 for r in rowids] or [0]
    current_patches_file(db).write_text(json.dumps(raw), encoding="utf-8")


STASH: dict[str, str] = {}

#: (step, whether the pin after it copies or shares the previous stop's copy).
HISTORY = [
    (load, "builds"),
    (create_indexes, "builds"),
    (checkpoint, "builds"),  # generation flipped
    (insert, "builds"),
    (delete, "builds"),
    (update_indexed, "builds"),
    (update_unindexed, "builds"),
    (drop_and_recreate_table, "builds"),
    (drop_index, "builds"),
    (checkpoint, "builds"),
    (more_dml, "builds"),
    (delete_patches_file, "reuses"),  # no table or index changed
    (corrupt_patches_file, "reuses"),
]
STOPS = [f"{position:02d}-{step.__name__}" for position, (step, _) in enumerate(HISTORY)]
#: Stops whose reopen / cold build finds the patches file unusable.
BROKEN = {"11-delete_patches_file": "missing", "12-corrupt_patches_file": "checksum"}


# -- observing one state --------------------------------------------------------


def tables_state(tables) -> dict:
    """Every cell and validity bit, per table, plus the partition split."""
    state = {}
    for name in sorted(tables):
        table = tables[name]
        columns = {}
        for column in table.schema.names:
            vector = table.read_column(column)
            validity = (
                [True] * len(vector)
                if vector.validity is None
                else vector.validity.tolist()
            )
            columns[column] = (vector.to_pylist(), validity)
        state[name] = (
            [partition.row_count for partition in table.partitions],
            columns,
        )
    return state


def catalog_tables(catalog) -> dict:
    return {name: catalog.table(name) for name in catalog.table_names()}


def patches_state(catalog) -> dict:
    """Partition-local patch rowids of every index, by index name."""
    return {
        index.name: [
            index.partition_patches(pid).rowids().tolist()
            for pid in range(index.table.partition_count)
        ]
        for index in catalog.indexes()
    }


def fresh_patches(catalog) -> dict:
    """What discovery from scratch says, over the same tables."""
    state = {}
    for index in list(catalog.indexes()):
        fresh = PatchIndex.create(
            index.name,
            index.table,
            index.column_name,
            kind=index.kind,
            threshold=1.0,
            scope=index.scope,
            ascending=index.ascending,
            strict=index.strict,
        )
        fresh.detach()
        state[index.name] = [
            fresh.partition_patches(pid).rowids().tolist()
            for pid in range(index.table.partition_count)
        ]
    return state


@dataclass
class Stop:
    live_tables: dict
    live_patches: dict
    fresh: dict
    doors_tables: dict = field(default_factory=dict)
    doors_patches: dict = field(default_factory=dict)
    snapshot_outcome: str = ""
    recovery: dict = field(default_factory=dict)


def counters(db) -> dict:
    return dict(db.obs.export()["counters"])


def read_door(stop: Stop, door: str, catalog) -> None:
    stop.doors_tables[door] = tables_state(catalog_tables(catalog))
    stop.doors_patches[door] = patches_state(catalog)


@pytest.fixture(scope="module")
def stops(tmp_path_factory):
    """Walk the history once, observing all three doors at every stop."""
    root = tmp_path_factory.mktemp("materialize") / "db"
    db = repro.connect(root, parallelism=1, sync=False)
    observed: dict[str, Stop] = {}
    held = None  # the previous stop and the snapshot pinned there
    for stop_name, (step, _) in zip(STOPS, HISTORY):
        step(db)
        stop = Stop(
            tables_state(catalog_tables(db.catalog)),
            patches_state(db.catalog),
            fresh_patches(db.catalog),
        )
        if held is not None:  # the database just advanced past that pin
            read_door(held[0], "advanced", held[1].catalog)
            held[1].close()
        before = counters(db)
        view = db.snapshot()
        after = counters(db)
        stop.snapshot_outcome = next(
            name
            for name in ("builds", "reuses")
            if after.get(f"storage.snapshot.{name}", 0)
            > before.get(f"storage.snapshot.{name}", 0)
        )
        held = (stop, view)
        # A reopen — of a copy, so the live engine stays the only writer
        # of its directory — and the copy's first snapshot.
        copy = root.parent / f"copy-{stop_name}"
        shutil.copytree(root, copy)
        reopened = repro.connect(copy, parallelism=1, sync=False)
        read_door(stop, "reopen", reopened.catalog)
        exported = reopened.obs.export()
        stop.recovery = {
            "restored": exported["gauges"]["recovery.indexes_restored"],
            "rebuilt": exported["gauges"]["recovery.indexes_rebuilt"],
            "fallbacks": exported["counters"]["recovery.index_fallbacks"],
            "reasons": {
                name.rsplit(".", 1)[1]: value
                for name, value in exported["counters"].items()
                if name.startswith("recovery.index_fallbacks.")
            },
        }
        with reopened.snapshot() as cold:
            read_door(stop, "cold", cold.catalog)
        reopened.close()
        shutil.rmtree(copy)
        observed[stop_name] = stop
    more_dml(db)
    read_door(held[0], "advanced", held[1].catalog)
    held[1].close()
    db.close()
    return observed


# -- the assertions ---------------------------------------------------------------


@pytest.mark.parametrize("stop_name", STOPS)
class TestFourDoorsOneState:  # three doors; the name carries 100+ test ids
    @pytest.mark.parametrize("door", ["reopen", "cold", "advanced"])
    def test_tables_equal_live(self, stops, stop_name, door):
        stop = stops[stop_name]
        assert stop.doors_tables[door] == stop.live_tables

    @pytest.mark.parametrize("door", ["reopen", "cold", "advanced"])
    def test_patch_sets_equal_live_and_fresh(self, stops, stop_name, door):
        stop = stops[stop_name]
        assert stop.doors_patches[door] == stop.live_patches
        assert stop.doors_patches[door] == stop.fresh

    def test_snapshot_took_the_scripted_path(self, stops, stop_name):
        expected = dict(zip(STOPS, (how for _, how in HISTORY)))
        assert stops[stop_name].snapshot_outcome == expected[stop_name]

    def test_restore_unless_the_patches_file_is_broken(self, stops, stop_name):
        stop = stops[stop_name]
        indexes = len(stop.live_patches)
        assert stop.recovery["restored"] + stop.recovery["rebuilt"] == indexes
        if stop_name in BROKEN:
            # The one fallback site fired for every index, and still agreed.
            assert stop.recovery == {
                "restored": 0,
                "rebuilt": indexes,
                "fallbacks": indexes,
                "reasons": {BROKEN[stop_name]: indexes},
            }
        elif stop_name >= "02":
            assert stop.recovery["fallbacks"] == 0
            if stop_name not in ("07-drop_and_recreate_table", "08-drop_index"):
                assert stop.recovery["restored"] == indexes  # all covered
        else:
            assert stop.recovery["restored"] == 0  # nothing checkpointed yet


def test_history_exercises_patches_and_nulls(stops):
    last = stops[STOPS[-1]]
    assert any(rowids for rowids in last.live_patches["pi_u"])
    assert any(rowids for rowids in last.live_patches["pi_s"])
    names, validity = last.live_tables["t"][1]["name"]
    assert None in names and False in validity
    assert "pi_v" not in last.live_patches and "pi_k" in last.live_patches


def test_fallback_names_its_reason(tmp_path, caplog):
    """A refused restore is counted under a reason and logged once."""
    from repro.storage import materialize

    root = tmp_path / "db"
    db = repro.connect(root, parallelism=1, sync=False)
    load(db)
    create_indexes(db)
    db.checkpoint()
    db.close()
    manifest = json.loads((root / "manifest.json").read_text())
    patches_path(root, manifest["checkpoint_lsn"]).unlink()

    materialize._LOGGED_REASONS.discard("missing")
    with caplog.at_level("WARNING", logger="repro.storage.materialize"):
        for _ in range(2):
            reopened = repro.connect(root, parallelism=1, sync=False)
            exported = reopened.obs.export()
            assert exported["counters"]["recovery.index_fallbacks"] == 4
            assert exported["gauges"]["recovery.indexes_rebuilt"] == 4
            reopened.close()
    lines = [r.getMessage() for r in caplog.records if "missing" in r.getMessage()]
    assert len(lines) == 1 and "missing" in FALLBACK_REASONS
