"""Cross-path parity fuzz: incremental maintenance vs rebuild oracle.

Random append/delete/update streams run through the incremental
maintainer on both engines; every checkpoint of the fuzz asserts three
independent implementations agree:

- the *live* incrementally-maintained index on a MemoryEngine database,
- the same stream on a DurableEngine database (WAL-logged data records),
- a *rebuild-from-scratch oracle*: a fresh database loaded with the
  final table contents whose index is discovered from data.

Patch sets are compared across the two live paths rowid-for-rowid (one
classifier, so they must match exactly), and against the oracle by
constraint validity and query results — the greedy incremental
classifier may keep more patches than a from-scratch discovery, but
never an invalid or query-visible set.

The crash half reopens the durable directory mid-stream and asserts
recovery *restores* indexes from the checkpointed patch sets and lets
them re-classify the replayed data tail (``recovery.indexes_restored``),
landing on the live patch sets and drift counters — also after a torn
last line.  A log an older release wrote with ``patch_delta`` lines in
it is refused with a :class:`~repro.errors.WalError`.

The differential fuzz (``TestEveryDoorAfterEveryStep``) widens the inputs:
insert / delete / update / multi-partition ``load`` histories with NULLs
and in-batch duplicates, an update as the very first mutation, a rebuild
followed by mutations, an insert right after a reopen, and an index
created before or after the last checkpoint — for NUC and NSC (global
and partition scope, strict, descending, both physical designs) over an
INT64 and a string column.  After **every** step the table, the patch
sets and the drift counters of memory, durable, a snapshot of each and a
reopened copy of the directory must be equal rowid for rowid, valid, and
answer like the rebuild-from-scratch oracle, with no recovery fallback.
"""

import json
import random
import shutil
from collections import Counter

import pytest

import repro
from repro.core.constraints import check_nsc, check_nuc
from repro.errors import WalError
from repro.storage.checkpoint import entry_checksum
from repro.storage.manifest import patches_path, read_manifest
from repro.storage.schema import Field, Schema
from repro.types import DataType

KINDS = ["unique", "sorted"]
SEEDS = [7, 23, 101]


def random_stream(seed, length=40):
    """A deterministic mixed mutation stream."""
    rng = random.Random(seed)
    stream = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.5:
            values = [rng.randrange(0, 50) for _ in range(rng.randrange(1, 4))]
            stream.append(("insert", values))
        elif roll < 0.75:
            stream.append(("delete", rng.randrange(0, 50)))
        else:
            stream.append(("update", rng.random(), rng.randrange(0, 50)))
    return stream


def apply_stream(db, stream):
    """Run one mutation stream against *db*'s table ``t``."""
    table = db.table("t")
    for op, *args in stream:
        if op == "insert":
            values = ", ".join(f"({v})" for v in args[0])
            db.sql(f"INSERT INTO t VALUES {values}")
        elif op == "delete":
            db.sql(f"DELETE FROM t WHERE c = {args[0]}")
        elif op == "update" and table.row_count:
            rowid = int(args[0] * table.row_count) % table.row_count
            table.update_rowid(rowid, "c", args[1])


def seed_values(seed):
    rng = random.Random(seed * 31 + 1)
    return [rng.randrange(0, 50) for _ in range(30)]


def setup(db, kind, seed):
    db.sql("CREATE TABLE t (c BIGINT)")
    values = ", ".join(f"({v})" for v in seed_values(seed))
    db.sql(f"INSERT INTO t VALUES {values}")
    db.sql(f"CREATE PATCHINDEX pi ON t(c) TYPE {kind.upper()}")


def assert_valid(index):
    """NUC and global NSC hold over the table, partition NSC per partition."""
    name = index.column_name
    if index.kind == "unique" or index.scope == "global":
        pieces = [(index.table.read_column(name), index.rowids())]
    else:
        pieces = [
            (p.column(name), index.partition_patches(p.partition_id).rowids())
            for p in index.table.partitions
        ]
    for column, rowids in pieces:
        if index.kind == "unique":
            valid = check_nuc(column, rowids)
        else:
            valid = check_nsc(
                column, rowids, ascending=index.ascending, strict=index.strict
            )
        if not valid:
            raise AssertionError(
                f"{index.kind} violated: values={column.to_pylist()}, "
                f"patches={rowids.tolist()}"
            )


def observable_state(db):
    """Everything a query can see through the index rewrites."""
    return (
        db.sql("SELECT COUNT(DISTINCT c) AS n FROM t").scalar(),
        db.sql("SELECT c FROM t ORDER BY c").column("c").to_pylist(),
        db.sql("SELECT c FROM t ORDER BY c DESC").column("c").to_pylist(),
    )


def oracle_state(db):
    """Rebuild-from-scratch oracle over *db*'s final table contents."""
    values = db.table("t").read_column("c").to_pylist()
    oracle = repro.connect()
    oracle.sql("CREATE TABLE t (c BIGINT)")
    if values:
        rows = ", ".join("(NULL)" if v is None else f"({v})" for v in values)
        oracle.sql(f"INSERT INTO t VALUES {rows}")
    return oracle


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
class TestCrossEngineParity:
    def test_memory_and_durable_agree(self, tmp_path, kind, seed):
        stream = random_stream(seed)
        memory = repro.connect()
        durable = repro.connect(tmp_path / "data", parallelism=1)
        for db in (memory, durable):
            setup(db, kind, seed)
            apply_stream(db, stream)
        # One classifier drives both engines, so the maintained patch
        # sets must be identical rowid-for-rowid — not just equivalent.
        left = memory.catalog.index("pi").rowids().tolist()
        right = durable.catalog.index("pi").rowids().tolist()
        if left != right:
            raise AssertionError(f"patch sets diverged: {left} != {right}")
        for db in (memory, durable):
            assert_valid(db.catalog.index("pi"))
        durable.close()

    def test_incremental_matches_rebuild_oracle(self, kind, seed):
        db = repro.connect()
        setup(db, kind, seed)
        apply_stream(db, random_stream(seed))
        oracle = oracle_state(db)
        oracle.sql(f"CREATE PATCHINDEX pi ON t(c) TYPE {kind.upper()}")
        if observable_state(db) != observable_state(oracle):
            raise AssertionError(
                f"incremental results diverged from oracle: "
                f"{observable_state(db)} != {observable_state(oracle)}"
            )
        # The greedy incremental classifier may keep more patches than
        # a fresh discovery, never fewer valid rows than required.
        assert_valid(db.catalog.index("pi"))
        assert_valid(oracle.catalog.index("pi"))


def drift(index):
    """The drift counters and rebuild count a reopen must reproduce."""
    stats = index.maintenance_stats()
    return (None if stats is None else stats.to_payload(), index.rebuild_count)


def assert_restored_without_fallback(db, restored=1):
    exported = db.obs.export()
    assert exported["gauges"]["recovery.indexes_restored"] == restored
    assert exported["gauges"]["recovery.indexes_rebuilt"] == 0
    assert exported["counters"]["recovery.index_fallbacks"] == 0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
class TestCrashRecovery:
    def test_recovery_restores_without_rebuilding(self, tmp_path, kind, seed):
        path = tmp_path / "data"
        db = repro.connect(path, parallelism=1)
        setup(db, kind, seed)
        # Checkpoint BEFORE the stream so the persisted patch sets plus
        # the re-classified data tail are the only way to restore the index.
        db.checkpoint()
        apply_stream(db, random_stream(seed))
        expected_rowids = db.catalog.index("pi").rowids().tolist()
        expected_drift = drift(db.catalog.index("pi"))
        expected_state = observable_state(db)
        db.close()  # crash: no checkpoint after the stream

        recovered = repro.connect(path, parallelism=1)
        assert_restored_without_fallback(recovered)
        assert recovered.obs.gauge("recovery.replayed_records").value > 0
        assert recovered.catalog.index("pi").rowids().tolist() == (
            expected_rowids
        )
        assert drift(recovered.catalog.index("pi")) == expected_drift
        assert observable_state(recovered) == expected_state
        assert_valid(recovered.catalog.index("pi"))
        recovered.close()


def test_a_torn_last_data_line_restores_without_fallback(tmp_path):
    """A crash mid-append tears the last data record: the reopen drops
    it and lands on the state before that statement, index restored."""
    path = tmp_path / "data"
    db = repro.connect(path, parallelism=1)
    setup(db, "unique", 7)
    db.sql("CREATE PATCHINDEX ps ON t(c) TYPE SORTED")
    db.checkpoint()
    apply_stream(db, random_stream(7))
    expected = {
        name: (db.catalog.index(name).rowids().tolist(), drift(db.catalog.index(name)))
        for name in ("pi", "ps")
    }
    expected_state = observable_state(db)
    db.sql("INSERT INTO t VALUES (1), (2), (3)")  # the statement the crash tears
    db.close()
    wal = path / "wal.jsonl"
    text = wal.read_bytes()
    last = text.rstrip(b"\n").rsplit(b"\n", 1)[1]
    assert json.loads(last)["kind"] == "append"
    wal.write_bytes(text[: len(text) - len(last) // 2 - 1])

    recovered = repro.connect(path, parallelism=1)
    assert_restored_without_fallback(recovered, restored=2)
    for name, (rowids, counters) in expected.items():
        index = recovered.catalog.index(name)
        assert (index.rowids().tolist(), drift(index)) == (rowids, counters)
    assert observable_state(recovered) == expected_state
    recovered.close()


#: What the release before ``rebuild_index`` wrote for the statements of
#: :func:`legacy_history` after its checkpoint: every data record followed
#: by the ``patch_delta`` the index derived from it.
LEGACY_WAL = """\
{"lsn": 1, "kind": "create_table", "payload": {"name": "t", "schema": [{"name": "c", "dtype": "int64", "nullable": true}], "partition_count": 1, "block_size": 4096}}
{"lsn": 3, "kind": "create_index", "payload": {"name": "pi", "table": "t", "column": "c", "kind": "unique", "mode": "auto", "threshold": 1.0, "scope": "global", "ascending": true, "strict": false}}
{"lsn": 4, "kind": "checkpoint", "payload": {"checkpoint_lsn": 3}}
{"lsn": 5, "kind": "append", "payload": {"table": "t", "columns": {"c": [2, 9]}, "row_count": 2}}
{"lsn": 6, "kind": "patch_delta", "payload": {"index": "pi", "table": "t", "event": "append", "applies_to": 5, "rows": 2, "demoted": 1, "ops": [{"op": "extend", "partition_id": 0, "rowids": [3], "row_count": 5}, {"op": "add", "partition_id": 0, "rowids": [1]}], "checksum": 990074707}}
{"lsn": 7, "kind": "delete", "payload": {"table": "t", "rowids": [0]}}
{"lsn": 8, "kind": "patch_delta", "payload": {"index": "pi", "table": "t", "event": "delete", "applies_to": 7, "rows": 1, "demoted": 0, "ops": [{"op": "remap", "partition_id": 0, "rowids": [0]}], "checksum": 2588055807}}
"""


def legacy_history(db):
    db.sql("CREATE TABLE t (c BIGINT)")
    db.sql("INSERT INTO t VALUES (1), (2), (3)")
    db.sql("CREATE PATCHINDEX pi ON t(c) TYPE UNIQUE")
    db.checkpoint()
    db.sql("INSERT INTO t VALUES (2), (9)")
    db.sql("DELETE FROM t WHERE c = 1")


def test_a_log_with_legacy_patch_delta_lines_is_refused(tmp_path):
    """An older release logged a ``patch_delta`` after every data record.
    This release neither writes nor reads that kind: such a directory is
    refused with the typed error any unknown kind gets, and left as it
    was."""
    path = tmp_path / "data"
    db = repro.connect(path, parallelism=1)
    legacy_history(db)
    db.close()
    # The segments and patches.json have the older release's format; only
    # the log differs.
    (path / "wal.jsonl").write_text(LEGACY_WAL, encoding="utf-8")

    with pytest.raises(WalError, match="unknown WAL record kind: 'patch_delta'"):
        repro.connect(path, parallelism=1)
    assert (path / "wal.jsonl").read_text(encoding="utf-8") == LEGACY_WAL
    with pytest.raises(WalError, match="unknown WAL record kind"):
        db.wal.append("patch_delta", {})


# -- differential fuzz: every door, after every step ---------------------------

PARTITIONS = 3
INDEXES = {
    "nuc": dict(kind="unique", mode="identifier"),
    "nuc-bitmap": dict(kind="unique", mode="bitmap"),
    "nsc-global": dict(kind="sorted", scope="global"),
    "nsc-local": dict(kind="sorted", scope="partition"),
    "nsc-global-strict": dict(kind="sorted", scope="global", strict=True),
    "nsc-local-strict": dict(kind="sorted", scope="partition", strict=True),
    "nsc-local-desc-bitmap": dict(
        kind="sorted", scope="partition", ascending=False, mode="bitmap"
    ),
}
DTYPES = {"int": DataType.INT64, "str": DataType.STRING}


class Values:
    """Seeded cell values: a small domain for NUC (collisions and fresh
    values both likely), a rising trend for NSC (so tails get extended),
    NULLs in both; strings are zero-padded so they order like the ints."""

    def __init__(self, rng, spec, dtype):
        self.rng, self.dtype = rng, dtype
        self.unique = spec["kind"] == "unique"
        self.step = 1 if spec.get("ascending", True) else -1
        self.level = 500

    def one(self):
        if self.rng.random() < 0.12:
            return None
        if self.unique:
            number = self.rng.randrange(0, 40)
        else:
            self.level += self.step * self.rng.randrange(0, 4)
            number = self.level + self.rng.randrange(-6, 3)
        return number if self.dtype == DataType.INT64 else f"v{number:04d}"

    def batch(self, low, high):
        values = [self.one() for _ in range(self.rng.randrange(low, high))]
        if self.rng.random() < 0.4:  # an in-batch duplicate
            values.append(self.rng.choice(values))
        if self.unique and self.rng.random() < 0.4:  # ... of a fresh value
            self.level += 1
            values += [self.level if self.dtype == DataType.INT64 else f"w{self.level}"] * 2
        self.rng.shuffle(values)
        return values


def fuzz_history(seed, spec, dtype, length=7):
    rng = random.Random(seed)
    values = Values(rng, spec, dtype)
    initial = values.batch(14, 22)
    # An update is the first mutation the fresh index sees, aimed at a value
    # another row holds (for NUC: the row pair the old lazy state had to heal).
    history = [("update", rng.random(), rng.choice(initial))]
    for _ in range(length):
        roll = rng.random()
        if roll < 0.35:
            history.append(("insert", values.batch(1, 5)))
        elif roll < 0.5:
            history.append(("load", values.batch(4, 9)))
        elif roll < 0.7:
            history.append(("delete", [rng.random() for _ in range(rng.randrange(1, 4))]))
        elif roll < 0.9:
            history.append(("update", rng.random(), values.one()))
        else:
            history.append(("checkpoint",))
    history += [
        ("delete", [rng.random(), rng.random()]),
        ("insert", values.batch(2, 5)),  # delete-then-insert
        ("rebuild",),
        ("update", rng.random(), values.one()),  # mutations after the rebuild
        ("insert", values.batch(2, 5)),
        ("reopen",),
        ("insert", values.batch(2, 5)),  # insert right after reopen
    ]
    return initial, history


def mutate(db, step, dtype):
    """Apply one data step of a fuzz history to *db*'s table ``t``."""
    table = db.table("t")
    op, *args = step
    if op == "insert":
        table.insert_rows([[value] for value in args[0]])
    elif op == "load":
        table.load_columns({"c": repro.ColumnVector.from_pylist(dtype, args[0])})
    elif op == "delete" and table.row_count:
        table.delete_rowids({int(f * table.row_count) for f in args[0]})
    elif op == "update" and table.row_count:
        table.update_rowid(int(args[0] * table.row_count), "c", args[1])
    elif op == "checkpoint":
        db.checkpoint()
    elif op == "rebuild":
        db.catalog.index("pi").rebuild()


def rows_and_patches(catalog):
    return catalog.table("t").read_column("c").to_pylist(), patch_sets(catalog)


def door_state(catalog):
    """Rows, patch sets and drift counters: what every door must agree on."""
    return rows_and_patches(catalog), drift(catalog.index("pi"))


def patch_sets(catalog):
    index = catalog.index("pi")
    return [
        index.partition_patches(pid).rowids().tolist()
        for pid in range(index.table.partition_count)
    ]


def fuzz_setup(db, initial, spec, dtype, index_first=True):
    """The table and its index, and a checkpoint that covers the index
    (every reopen *restores* it) or only the table (every reopen discovers
    it at its ``create_index``)."""
    schema = Schema([Field("c", dtype)])
    db.create_table_from_pydict("t", schema, {"c": initial}, PARTITIONS)
    if index_first:
        db.create_patch_index("pi", "t", "c", **spec)
    db.checkpoint()
    if not index_first:
        db.create_patch_index("pi", "t", "c", **spec)


def oracle_of(db, spec, dtype):
    oracle = repro.connect()
    fuzz_setup(oracle, db.table("t").read_column("c").to_pylist(), spec, dtype)
    assert_valid(oracle.catalog.index("pi"))
    return observable_state(oracle)


def brute_force_nuc_append(values, patches, new_values):
    """A new row is a patch iff NULL or its value occurs in any other row;
    an old kept row is demoted iff a new row holds its value."""
    held = Counter(v for v in values + new_values if v is not None)
    demoted = {r for r, v in enumerate(values) if v is not None and v in new_values}
    fresh = {
        len(values) + i
        for i, v in enumerate(new_values)
        if v is None or held[v] > 1
    }
    return sorted(set(patches) | demoted | fresh)


@pytest.mark.parametrize("dtype_name", DTYPES)
@pytest.mark.parametrize("spec_name", INDEXES)
@pytest.mark.parametrize("seed", [3, 11])
class TestEveryDoorAfterEveryStep:
    def test_all_doors_agree_and_match_the_oracle(
        self, tmp_path, seed, spec_name, dtype_name
    ):
        walk_every_door(tmp_path, seed, spec_name, dtype_name, index_first=True)

    def test_an_index_created_after_the_last_checkpoint(
        self, tmp_path, seed, spec_name, dtype_name
    ):
        walk_every_door(tmp_path, seed, spec_name, dtype_name, index_first=False)


def walk_every_door(tmp_path, seed, spec_name, dtype_name, index_first):
    spec, dtype = INDEXES[spec_name], DTYPES[dtype_name]
    initial, history = fuzz_history(seed, spec, dtype)
    if not index_first:  # no checkpoint after the index is created
        history = [step for step in history if step[0] != "checkpoint"]
    restored = 1 if index_first else 0
    root = tmp_path / "data"
    memory = repro.connect()
    durable = repro.connect(root, parallelism=1, sync=False)
    for db in (memory, durable):
        fuzz_setup(db, initial, spec, dtype, index_first)
    for position, step in enumerate(history):
        where = f"step {position} {step!r}"
        if step[0] == "reopen":
            durable.close()
            durable = repro.connect(root, parallelism=1, sync=False)
            gauges = durable.obs.export()["gauges"]
            assert gauges["recovery.indexes_restored"] == restored, where
            assert gauges["recovery.indexes_rebuilt"] == 1 - restored, where
        else:
            before = memory.table("t").read_column("c").to_pylist()
            before_patches = memory.catalog.index("pi").rowids().tolist()
            for db in (memory, durable):
                mutate(db, step, dtype)
            if step[0] == "insert" and spec["kind"] == "unique":
                assert memory.catalog.index(
                    "pi"
                ).rowids().tolist() == brute_force_nuc_append(
                    before, before_patches, step[1]
                ), where

        # memory == durable == either's snapshot == reopened, rowid for rowid
        live = door_state(memory.catalog)
        expected = oracle_of(memory, spec, dtype)
        assert_valid(memory.catalog.index("pi"))
        assert door_state(durable.catalog) == live, where
        assert observable_state(memory) == expected, where
        assert observable_state(durable) == expected, where
        for db in (memory, durable):
            with db.snapshot() as view:
                assert door_state(view.catalog) == live, where
                assert_valid(view.catalog.index("pi"))
                assert observable_state(view) == expected, where
        copy = tmp_path / "copy"
        shutil.copytree(root, copy)
        reopened = repro.connect(copy, parallelism=1, sync=False)
        assert door_state(reopened.catalog) == live, where
        assert reopened.obs.export()["counters"]["recovery.index_fallbacks"] == 0, where
        assert observable_state(reopened) == expected, where
        reopened.close()
        shutil.rmtree(copy)
    durable.close()


def test_patches_file_written_before_invalidations_was_retired(tmp_path):
    """The parent persisted ``stats.invalidations`` inside the checksummed
    entry body; such a directory restores every index, rebuilding none."""
    root = tmp_path / "data"
    db = repro.connect(root, parallelism=1, sync=False)
    setup(db, "unique", 7)
    db.sql("CREATE PATCHINDEX ps ON t(c) TYPE SORTED")
    apply_stream(db, random_stream(7))
    db.checkpoint()
    expected = {name: db.catalog.index(name).rowids().tolist() for name in ("pi", "ps")}
    db.close()
    path = patches_path(root, read_manifest(root).checkpoint_lsn)
    raw = json.loads(path.read_text(encoding="utf-8"))
    for entry in raw["indexes"].values():
        assert "invalidations" not in entry["stats"]
        entry["stats"]["invalidations"] = 5
        entry["checksum"] = entry_checksum(entry)
    path.write_text(json.dumps(raw), encoding="utf-8")

    reopened = repro.connect(root, parallelism=1, sync=False)
    exported = reopened.obs.export()
    assert exported["gauges"]["recovery.indexes_restored"] == 2
    assert exported["gauges"]["recovery.indexes_rebuilt"] == 0
    assert exported["counters"].get("recovery.index_fallbacks", 0) == 0
    for name, rowids in expected.items():
        index = reopened.catalog.index(name)
        assert index.rowids().tolist() == rowids
        assert not hasattr(index.maintenance_stats(), "invalidations")
        assert "invalidations" not in index.maintenance_stats().to_payload()
    assert "patchindex.pi.invalidations" not in reopened.metrics().export()["gauges"]
    reopened.close()
