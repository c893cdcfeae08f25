"""Cross-path parity fuzz: incremental maintenance vs rebuild oracle.

Random append/delete/update streams run through the incremental delta
layer on both engines; every checkpoint of the fuzz asserts three
independent implementations agree:

- the *live* incrementally-maintained index on a MemoryEngine database,
- the same stream on a DurableEngine database (WAL-logged data records
  plus ``patch_delta`` records),
- a *rebuild-from-scratch oracle*: a fresh database loaded with the
  final table contents whose index is discovered from data.

Patch sets are compared across the two live paths rowid-for-rowid (one
classifier, so they must match exactly), and against the oracle by
constraint validity and query results — the greedy incremental
classifier may keep more patches than a from-scratch discovery, but
never an invalid or query-visible set.

The crash half reopens the durable directory mid-stream and asserts
recovery *restores* indexes from the checkpointed patch sets plus delta
replay (``recovery.indexes_restored``), falling back to the paper's
rebuild-from-data path only when a delta is corrupt or missing
(``recovery.indexes_rebuilt``).

The differential fuzz (``TestEveryDoorAfterEveryStep``) widens the inputs:
insert / delete / update / multi-partition ``load`` histories with NULLs
and in-batch duplicates, an update as the very first mutation, an insert
right after a reopen — for NUC and NSC (global and partition scope,
strict, descending, both physical designs) over an INT64 and a string
column.  After **every** step the table and the patch sets of memory,
durable, a snapshot of each and a reopened copy of the directory must be
equal rowid for rowid, valid, and answer like the rebuild-from-scratch
oracle.
"""

import json
import random
import shutil
from collections import Counter

import pytest

import repro
from repro.core.constraints import check_nsc, check_nuc
from repro.core.delta import delta_checksum
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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
class TestCrashRecovery:
    def test_recovery_restores_without_rebuilding(self, tmp_path, kind, seed):
        path = tmp_path / "data"
        db = repro.connect(path, parallelism=1)
        setup(db, kind, seed)
        # Checkpoint BEFORE the stream so the persisted patch sets plus
        # the WAL delta tail are the only way to restore the index.
        db.checkpoint()
        apply_stream(db, random_stream(seed))
        expected_rowids = db.catalog.index("pi").rowids().tolist()
        expected_state = observable_state(db)
        db.close()  # crash: no checkpoint after the stream

        recovered = repro.connect(path, parallelism=1)
        restored = recovered.obs.gauge("recovery.indexes_restored").value
        rebuilt = recovered.obs.gauge("recovery.indexes_rebuilt").value
        if (restored, rebuilt) != (1, 0):
            raise AssertionError(
                f"expected pure delta-replay recovery, got "
                f"restored={restored} rebuilt={rebuilt}"
            )
        replayed = recovered.obs.gauge(
            "recovery.delta_records_replayed"
        ).value
        if replayed <= 0:
            raise AssertionError("recovery replayed no patch deltas")
        assert recovered.catalog.index("pi").rowids().tolist() == (
            expected_rowids
        )
        assert observable_state(recovered) == expected_state
        assert_valid(recovered.catalog.index("pi"))
        recovered.close()


def _corrupt_one_delta(path, mutate):
    """Rewrite the WAL, applying *mutate* to the last patch_delta line."""
    wal = path / "wal.jsonl"
    lines = wal.read_text(encoding="utf-8").splitlines()
    target = max(
        i
        for i, line in enumerate(lines)
        if json.loads(line)["kind"] == "patch_delta"
    )
    replacement = mutate(lines[target])
    lines[target:target + 1] = [replacement] if replacement else []
    wal.write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8"
    )


class TestRecoveryFallback:
    def run_stream(self, path):
        db = repro.connect(path, parallelism=1)
        setup(db, "unique", 7)
        db.checkpoint()
        apply_stream(db, random_stream(7))
        state = observable_state(db)
        db.close()
        return state

    def reopen_and_check(self, path, expected_state):
        recovered = repro.connect(path, parallelism=1)
        restored = recovered.obs.gauge("recovery.indexes_restored").value
        rebuilt = recovered.obs.gauge("recovery.indexes_rebuilt").value
        if (restored, rebuilt) != (0, 1):
            raise AssertionError(
                f"expected rebuild-from-data fallback, got "
                f"restored={restored} rebuilt={rebuilt}"
            )
        # The fallback still reconstructs a correct index from data.
        assert observable_state(recovered) == expected_state
        assert_valid(recovered.catalog.index("pi"))
        recovered.close()

    def test_corrupt_checksum_falls_back_to_rebuild(self, tmp_path):
        path = tmp_path / "data"
        state = self.run_stream(path)

        def flip_rows(line):
            record = json.loads(line)
            record["payload"]["rows"] = record["payload"].get("rows", 0) + 1
            return json.dumps(record)

        _corrupt_one_delta(path, flip_rows)
        self.reopen_and_check(path, state)

    def test_missing_delta_falls_back_to_rebuild(self, tmp_path):
        path = tmp_path / "data"
        state = self.run_stream(path)
        _corrupt_one_delta(path, lambda line: None)
        self.reopen_and_check(path, state)


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


def rows_and_patches(catalog):
    return catalog.table("t").read_column("c").to_pylist(), patch_sets(catalog)


def patch_sets(catalog):
    index = catalog.index("pi")
    return [
        index.partition_patches(pid).rowids().tolist()
        for pid in range(index.table.partition_count)
    ]


def fuzz_setup(db, initial, spec, dtype):
    schema = Schema([Field("c", dtype)])
    db.create_table_from_pydict("t", schema, {"c": initial}, PARTITIONS)
    db.create_patch_index("pi", "t", "c", **spec)
    # The checkpoint covers the index, so every reopen and every snapshot
    # build *restores* it instead of re-discovering a minimal one.
    db.checkpoint()


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
        spec, dtype = INDEXES[spec_name], DTYPES[dtype_name]
        initial, history = fuzz_history(seed, spec, dtype)
        root = tmp_path / "data"
        memory = repro.connect()
        durable = repro.connect(root, parallelism=1, sync=False)
        for db in (memory, durable):
            fuzz_setup(db, initial, spec, dtype)
        for position, step in enumerate(history):
            where = f"step {position} {step!r}"
            if step[0] == "reopen":
                durable.close()
                durable = repro.connect(root, parallelism=1, sync=False)
                gauges = durable.obs.export()["gauges"]
                assert gauges["recovery.indexes_restored"] == 1, where
                assert gauges["recovery.indexes_rebuilt"] == 0, where
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
            live = rows_and_patches(memory.catalog)
            expected = oracle_of(memory, spec, dtype)
            assert_valid(memory.catalog.index("pi"))
            assert rows_and_patches(durable.catalog) == live, where
            assert observable_state(memory) == expected, where
            assert observable_state(durable) == expected, where
            for db in (memory, durable):
                with db.snapshot() as view:
                    assert rows_and_patches(view.catalog) == live, where
                    assert_valid(view.catalog.index("pi"))
                    assert observable_state(view) == expected, where
            copy = tmp_path / "copy"
            shutil.copytree(root, copy)
            reopened = repro.connect(copy, parallelism=1, sync=False)
            assert rows_and_patches(reopened.catalog) == live, where
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
        del entry["checksum"]
        entry["checksum"] = delta_checksum(entry)
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
