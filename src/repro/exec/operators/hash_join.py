"""Hash join (inner equi-join).

The build side is fully drained into a hash table, then probe batches
stream through.  Numeric keys (INT64 / DATE / BOOL / FLOAT64) use the
vectorized :class:`~repro.exec.hashtable.Int64HashTable` whether or not
the build keys repeat: the build keys are sorted once, only the head of
each run of equal keys is hashed, and a probe hit expands to its run —
probe order first, build order within one probe row.  FLOAT64 keys join
on value (``-0.0`` matches ``0.0``, NaN matches nothing), never on a
truncated integer.  Only string keys use a dict of positions.  NULL keys
never match (SQL equi-join semantics).

The paper's join rewrite (§VI-B3) replaces this operator with a
MergeJoin for the sorted subsequence and keeps a HashJoin only for the
patches, built on the smaller input; an NSC's patches are the values
that are out of place, so their keys repeat as a rule.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError, PlanError
from repro.exec.batch import RecordBatch
from repro.exec.hashtable import Int64HashTable
from repro.exec.operators.base import Operator
from repro.storage.column import ColumnVector
from repro.storage.schema import Schema
from repro.types import DataType


def _joined_schema(probe: Schema, build: Schema) -> Schema:
    names = set(probe.names)
    for field in build:
        if field.name in names:
            raise PlanError(
                f"join output column collision: {field.name!r} "
                f"(qualify or alias the columns first)"
            )
    return Schema(list(probe.fields) + list(build.fields))


def expand_ranges(
    starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expand the ranges ``[starts[i], starts[i] + counts[i])`` into
    pairs ``(i, position)``: ranges in order, each one ascending.  The
    many-match paths of both joins emit their index pairs through it."""
    owners = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    shift = np.asarray(starts, dtype=np.int64) - (np.cumsum(counts) - counts)
    return owners, shift[owners] + np.arange(len(owners), dtype=np.int64)


def _hash_keys(values: np.ndarray, as_float: bool) -> np.ndarray:
    """The int64 the hash table stores per numeric key: the value itself,
    or — when either side is FLOAT64 — the float's bits with ``-0.0``
    folded into ``0.0``, so that equal values get equal keys."""
    if as_float:
        return (values + 0.0).view(np.int64)
    return values.astype(np.int64, copy=False)


class HashJoin(Operator):
    """Equi-join; output = probe columns followed by build columns.

    ``join_type`` is ``"inner"`` or ``"left_outer"`` — the latter keeps
    unmatched *probe* rows, padding the build columns with NULL (the
    shape the paper's NUC discovery query uses).
    """

    def __init__(
        self,
        probe: Operator,
        build: Operator,
        probe_key: str,
        build_key: str,
        join_type: str = "inner",
    ):
        if join_type not in ("inner", "left_outer"):
            raise PlanError(f"unsupported join type {join_type!r}")
        self.probe = probe
        self.build = build
        self.probe_key = probe_key
        self.build_key = build_key
        self.join_type = join_type
        key_types = {
            probe.schema.field(probe_key).dtype,
            build.schema.field(build_key).dtype,
        }
        self._object_keys = DataType.STRING in key_types
        self._float_keys = DataType.FLOAT64 in key_types
        probe_schema = probe.schema
        build_schema = build.schema
        if join_type == "left_outer":
            # Build columns become nullable in the output.
            from repro.storage.schema import Field

            build_schema = Schema(
                Field(field.name, field.dtype, True) for field in build_schema
            )
        self._schema = _joined_schema(probe_schema, build_schema)
        self._build_schema = build_schema
        self._build_data: RecordBatch | None = None
        self._int_table: Int64HashTable | None = None
        # Repeated build keys: (run starts, run lengths, build positions
        # in key order); the table maps a key to its run.
        self._runs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._dict_table: dict | None = None

    @property
    def schema(self) -> Schema:
        return self._schema

    def children(self) -> list[Operator]:
        return [self.probe, self.build]

    def open(self) -> None:
        super().open()
        self._build_data = None
        self._int_table = None
        self._runs = None
        self._dict_table = None

    # -- build phase --------------------------------------------------------

    def _ensure_built(self) -> None:
        if self._build_data is not None:
            return
        batches: list[RecordBatch] = []
        while True:
            batch = self.build.next_batch()
            if batch is None:
                break
            if len(batch):
                batches.append(batch)
        if batches:
            self._build_data = RecordBatch.concat(batches)
        else:
            self._build_data = RecordBatch(
                self.build.schema,
                {
                    field.name: ColumnVector.empty(field.dtype)
                    for field in self.build.schema
                },
            )
        key_column = self._build_data.column(self.build_key)
        values = key_column.values
        valid = key_column.validity_or_all_true()
        if self._object_keys:
            table: dict[object, list[int]] = {}
            positions = np.flatnonzero(valid)
            for position, value in zip(
                positions.tolist(), values[positions].tolist()
            ):
                table.setdefault(value, []).append(position)
            self._dict_table = table
            return
        if self._float_keys:
            valid = valid & (values == values)  # NaN equals nothing
        positions = np.flatnonzero(valid).astype(np.int64)
        keys = _hash_keys(values[positions], self._float_keys)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        is_head = np.ones(len(keys), dtype=np.bool_)
        is_head[1:] = sorted_keys[1:] != sorted_keys[:-1]
        heads = np.flatnonzero(is_head)
        self._int_table = Int64HashTable(len(heads))
        if len(heads) == len(keys):
            self._int_table.insert_unique(keys, positions)
            return
        self._int_table.insert_unique(
            sorted_keys[heads], np.arange(len(heads), dtype=np.int64)
        )
        self._runs = (heads, np.diff(heads, append=len(keys)), positions[order])

    # -- probe phase ----------------------------------------------------------

    def next_batch(self) -> RecordBatch | None:
        self._ensure_built()
        while True:
            batch = self.probe.next_batch()
            if batch is None:
                return None
            if len(batch) == 0:
                continue
            probe_idx, build_idx, passthrough = self._match(batch)
            if self.join_type == "left_outer":
                probe_idx, build_idx = _pad_unmatched(
                    len(batch), probe_idx, build_idx
                )
                passthrough = len(probe_idx) == len(batch) and passthrough
            if len(build_idx) == 0:
                continue
            return self._emit(batch, probe_idx, build_idx, passthrough)

    def _match(
        self, batch: RecordBatch
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """Match one probe batch; the third element flags the
        every-row-matched-once case where probe columns can pass through
        without a gather."""
        key_column = batch.column(self.probe_key)
        validity = key_column.validity_or_all_true()
        if self._int_table is not None:
            keys = _hash_keys(
                np.where(validity, key_column.values, 0), self._float_keys
            )
            found = self._int_table.lookup(keys)
            hit = (found != -1) & validity
            if self._runs is not None:
                starts, counts, positions = self._runs
                probe_rows = np.flatnonzero(hit).astype(np.int64)
                runs = found[probe_rows]
                owners, slots = expand_ranges(starts[runs], counts[runs])
                return probe_rows[owners], positions[slots], False
            if hit.all():
                return (
                    np.arange(len(batch), dtype=np.int64),
                    found,
                    True,
                )
            return (
                np.flatnonzero(hit).astype(np.int64),
                found[hit],
                False,
            )
        if self._dict_table is None:
            raise ExecutionError(
                "HashJoin hash table unavailable; next_batch() before open()?"
            )
        probe_idx: list[int] = []
        build_idx: list[int] = []
        values = key_column.values
        for position in np.flatnonzero(validity).tolist():
            matches = self._dict_table.get(values[position])
            if matches:
                probe_idx.extend([position] * len(matches))
                build_idx.extend(matches)
        return (
            np.asarray(probe_idx, dtype=np.int64),
            np.asarray(build_idx, dtype=np.int64),
            False,
        )

    def _emit(
        self,
        batch: RecordBatch,
        probe_idx: np.ndarray,
        build_idx: np.ndarray,
        passthrough: bool = False,
    ) -> RecordBatch:
        if self._build_data is None:
            raise ExecutionError(
                "HashJoin build side unavailable; next_batch() before open()?"
            )
        columns: dict[str, ColumnVector] = {}
        for field in self.probe.schema:
            vector = batch.column(field.name)
            columns[field.name] = (
                vector if passthrough else vector.take(probe_idx)
            )
        unmatched = build_idx < 0
        gather = np.where(unmatched, 0, build_idx)
        for field in self._build_schema:
            vector = self._build_data.column(field.name)
            if len(vector) == 0:
                # Left-outer against an empty build side: all NULL.
                taken = ColumnVector(
                    field.dtype,
                    np.zeros(
                        len(build_idx), dtype=vector.values.dtype
                    )
                    if vector.values.dtype != np.dtype(object)
                    else np.full(len(build_idx), "", dtype=object),
                    np.zeros(len(build_idx), dtype=np.bool_),
                )
            else:
                taken = vector.take(gather)
                if unmatched.any():
                    validity = taken.validity_or_all_true().copy()
                    validity[unmatched] = False
                    taken = ColumnVector(field.dtype, taken.values, validity)
            columns[field.name] = taken
        return RecordBatch(self._schema, columns)

    def label(self) -> str:
        return f"HashJoin({self.probe_key} = {self.build_key}, {self.join_type})"


def _pad_unmatched(
    batch_size: int, probe_idx: np.ndarray, build_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Add (probe row, -1) pairs for probe rows without any match."""
    matched = np.zeros(batch_size, dtype=np.bool_)
    matched[probe_idx] = True
    missing = np.flatnonzero(~matched).astype(np.int64)
    if len(missing) == 0:
        return probe_idx, build_idx
    probe_all = np.concatenate([probe_idx, missing])
    build_all = np.concatenate(
        [build_idx, np.full(len(missing), -1, dtype=np.int64)]
    )
    order = np.argsort(probe_all, kind="stable")
    return probe_all[order], build_all[order]

