"""Hash join (inner equi-join), and the run directory both joins match with.

The build side is fully drained and its keys sorted once into a
:class:`RunDirectory`: the distinct keys in ascending order, each with
its run of build rows.  A probe batch then costs one ``searchsorted``
over those keys, an equality check, and an expansion of each hit to its
run — probe order first, build order within one probe row.  There is no
hash table and no per-type path: both key columns are cast to one NumPy
dtype (INT64 ⋈ FLOAT64 widens to FLOAT64, as in a comparison), and
STRING keys sort by Python comparison as in ``Distinct``.  NULL keys
never match, nor does NaN; ``-0.0`` matches ``0.0``.

The paper's join rewrite (§VI-B3) replaces this operator with a
MergeJoin for the sorted subsequence and keeps a HashJoin only for the
patches, built on the smaller input; an NSC's patches are the values
that are out of place, so their keys repeat as a rule.  MergeJoin
searches the same directory, built over its sorted right side.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError, PlanError
from repro.exec.batch import RecordBatch
from repro.exec.operators.base import Operator
from repro.storage.column import ColumnVector
from repro.storage.schema import Field, Schema
from repro.types import DataType, common_type, numpy_dtype

_EMPTY = np.empty(0, dtype=np.int64)


def _joined_schema(probe: Schema, build: Schema) -> Schema:
    names = set(probe.names)
    for field in build:
        if field.name in names:
            raise PlanError(
                f"join output column collision: {field.name!r} "
                f"(qualify or alias the columns first)"
            )
    return Schema(list(probe.fields) + list(build.fields))


def key_dtype(left: DataType, right: DataType) -> np.dtype:
    """The one NumPy dtype both join keys are matched in; a pair of
    types a comparison would refuse raises ``TypeMismatchError``."""
    return numpy_dtype(common_type(left, right))


def expand_ranges(
    starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expand the ranges ``[starts[i], starts[i] + counts[i])`` into
    pairs ``(i, position)``: ranges in order, each one ascending."""
    owners = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    shift = np.asarray(starts, dtype=np.int64) - (np.cumsum(counts) - counts)
    return owners, shift[owners] + np.arange(len(owners), dtype=np.int64)


def joinable_keys(
    column: ColumnVector, dtype: np.dtype
) -> tuple[np.ndarray | None, np.ndarray]:
    """The keys of *column* that can match, cast to *dtype*, and their
    rows (``None`` when every row can): NULL never joins and NaN equals
    nothing."""
    keys = column.values.astype(dtype, copy=False)
    keep = column.validity
    if keys.dtype.kind == "f":  # only floats hold NaN
        keep = keys == keys if keep is None else keep & (keys == keys)
    if keep is None or keep.all():
        return None, keys
    rows = np.flatnonzero(keep)
    return rows, keys[rows]


def is_ascending(keys: np.ndarray) -> bool:
    return bool((keys[:-1] <= keys[1:]).all())


class RunDirectory:
    """Build rows grouped by key, for binary search.

    ``heads`` are the distinct keys in ascending order; run ``r`` — the
    build rows whose key is ``heads[r]`` — is
    ``positions[starts[r]:starts[r] + counts[r]]``, in build order.
    """

    def __init__(self, keys: np.ndarray, positions: np.ndarray):
        """*keys* ascending, without NULL or NaN; *positions* their rows."""
        is_head = np.ones(len(keys), dtype=np.bool_)
        is_head[1:] = keys[1:] != keys[:-1]
        self.starts = np.flatnonzero(is_head)
        self.heads = keys[self.starts]
        self.counts = np.diff(self.starts, append=len(keys))
        self.positions = positions
        #: Every run holds one row (a dimension's key): a match is final.
        self.unique = len(self.starts) == len(keys)

    def find(
        self, keys: np.ndarray, validity: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, runs)``: the rows of *keys*, in any order, whose key
        has a run, and that run; rows ascend."""
        if len(self.heads) == 0:
            return _EMPTY, _EMPTY
        runs = self.heads.searchsorted(keys)
        np.minimum(runs, len(self.heads) - 1, out=runs)
        hit = self.heads[runs] == keys
        if validity is not None:
            hit &= validity
        rows = np.flatnonzero(hit)
        return rows, runs[rows]

    def find_sorted(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`find` for ascending *keys* without NULL or NaN: only the
        heads between the first and the last key are searched, into
        *keys*, so the work follows what can match, not the rows."""
        low = self.heads.searchsorted(keys[0], side="left")
        high = self.heads.searchsorted(keys[-1], side="right")
        window = self.heads[low:high]
        starts = keys.searchsorted(window, side="left")
        counts = keys.searchsorted(window, side="right") - starts
        runs, rows = expand_ranges(starts, counts)
        return rows, runs + low

    def expand(
        self, rows: np.ndarray, runs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One ``(row, build position)`` pair per build row of each
        ``(row, run)``: in the order of *rows*, then build order."""
        if self.unique:
            return rows, self.positions[runs]
        owners, slots = expand_ranges(self.starts[runs], self.counts[runs])
        return rows[owners], self.positions[slots]


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
        self._key_dtype = key_dtype(
            probe.schema.field(probe_key).dtype,
            build.schema.field(build_key).dtype,
        )
        build_schema = build.schema
        if join_type == "left_outer":
            # Build columns become nullable in the output.
            build_schema = Schema(
                Field(field.name, field.dtype, True) for field in build_schema
            )
        self._schema = _joined_schema(probe.schema, build_schema)
        self._build_schema = build_schema
        self._build_data: RecordBatch | None = None
        self._directory: RunDirectory | None = None

    @property
    def schema(self) -> Schema:
        return self._schema

    def children(self) -> list[Operator]:
        return [self.probe, self.build]

    def open(self) -> None:
        super().open()
        self._build_data = None
        self._directory = None

    # -- build phase --------------------------------------------------------

    def _ensure_built(self) -> RunDirectory:
        if self._directory is not None:
            return self._directory
        data = self.build.drain()
        if data is None:
            data = RecordBatch.empty(self.build.schema)
        rows, keys = joinable_keys(data.column(self.build_key), self._key_dtype)
        order = np.argsort(keys, kind="stable")
        self._build_data = data
        self._directory = RunDirectory(
            keys[order], order if rows is None else rows[order]
        )
        return self._directory

    # -- probe phase ----------------------------------------------------------

    def next_batch(self) -> RecordBatch | None:
        directory = self._ensure_built()
        while True:
            batch = self.probe.next_batch()
            if batch is None:
                return None
            if len(batch) == 0:
                continue
            key_column = batch.column(self.probe_key)
            probe_idx, build_idx = directory.expand(
                *directory.find(
                    key_column.values.astype(self._key_dtype, copy=False),
                    key_column.validity,
                )
            )
            if self.join_type == "left_outer":
                probe_idx, build_idx = _pad_unmatched(
                    len(batch), probe_idx, build_idx
                )
            if len(build_idx) == 0:
                continue
            # Every probe row matched once: its columns pass through.
            passthrough = directory.unique and len(probe_idx) == len(batch)
            return self._emit(batch, probe_idx, build_idx, passthrough)

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
