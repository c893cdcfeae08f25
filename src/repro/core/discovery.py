"""Discovery of approximate constraints (paper §IV).

NUC discovery mirrors the paper's SQL-level approach — a grouping of the
column joined back against the table so that *all* occurrences of a
duplicated value become patches (condition NUC2), with NULLs always
assigned to the patch set.  Here the grouping+join is evaluated directly
with a vectorized unique/count, which computes the identical patch set;
:func:`nuc_discovery_sql` renders the paper's actual SQL text for
integration with external self-management tools.

NSC discovery computes the longest sorted subsequence (Fredman 1975,
walked one sorted run at a time: :mod:`repro.core.lis`) and inverts it,
which yields a *minimum* patch set; NULLs are assigned to the patch set
to keep sorting queries correct.

Table-level discovery follows §VI-A2 partition semantics:

- NSC: the sorted subsequence is computed *per partition*, so sorts and
  MergeJoins can be evaluated partition-locally.
- NUC: the grouping is *global* (a value duplicated across partitions is
  still a duplicate); each partition then receives the patches falling
  into its rowid range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.constraints import ConstraintKind, exception_rate
from repro.core.lis import longest_sorted_subsequence
from repro.storage.column import ColumnVector
from repro.storage.table import Table


@dataclass(frozen=True)
class DiscoveryResult:
    """Outcome of a discovery run over a (partitioned) column.

    ``per_partition_rowids`` holds partition-local patch rowids, one
    sorted int64 array per partition in partition order.  ``runs`` and
    ``scalar_steps`` say what an NSC discovery cost (both 0 for NUC): the
    sorted runs the column fell into, and the rows placed one at a time
    because their run was too short to batch — close to ``row_count``
    when the column was not nearly sorted and discovery took the slow
    path.
    """

    kind: ConstraintKind
    row_count: int
    per_partition_rowids: list[np.ndarray] = field(repr=False)
    partition_row_counts: list[int] = field(repr=False)
    runs: int = 0
    scalar_steps: int = 0

    @property
    def patch_count(self) -> int:
        return sum(len(rowids) for rowids in self.per_partition_rowids)

    @property
    def exception_rate(self) -> float:
        return exception_rate(self.patch_count, self.row_count)

    def global_rowids(self) -> np.ndarray:
        """All patch rowids in the table-global rowid space, ascending."""
        pieces: list[np.ndarray] = []
        base = 0
        for rowids, rows in zip(
            self.per_partition_rowids, self.partition_row_counts
        ):
            pieces.append(rowids + base)
            base += rows
        if not pieces:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(pieces)

    def satisfies(self, threshold: float) -> bool:
        """NUC3 / NSC2: is the exception rate within *threshold*?"""
        return self.exception_rate <= threshold


# -- column-level discovery --------------------------------------------------


def discover_nuc_patches(column: ColumnVector) -> np.ndarray:
    """Patch rowids making *column* unique: duplicates (all occurrences)
    plus NULLs.  Returned sorted ascending."""
    n = len(column)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    validity = column.validity_or_all_true()
    is_patch = ~validity
    valid_positions = np.flatnonzero(validity)
    if len(valid_positions):
        valid_values = column.values[valid_positions]
        __, inverse, counts = np.unique(
            valid_values, return_inverse=True, return_counts=True
        )
        duplicated = counts[inverse] > 1
        is_patch[valid_positions[duplicated]] = True
    return np.flatnonzero(is_patch).astype(np.int64)


def discover_nsc_patches(
    column: ColumnVector,
    ascending: bool = True,
    strict: bool = False,
) -> np.ndarray:
    """Minimum patch rowids making *column* sorted, via longest sorted
    subsequence; NULLs are always patches.  Returned sorted ascending."""
    return _nsc_patches(column, ascending, strict)[0]


def _nsc_patches(
    column: ColumnVector, ascending: bool, strict: bool
) -> tuple[np.ndarray, int, int]:
    """:func:`discover_nsc_patches` plus the kernel's ``(runs,
    scalar_steps)``."""
    validity = column.validity_or_all_true()
    valid_positions = np.flatnonzero(validity)
    kept = longest_sorted_subsequence(
        column.values[valid_positions], ascending=ascending, strict=strict
    )
    keep = np.zeros(len(column), dtype=np.bool_)
    keep[valid_positions[kept.positions]] = True
    return np.flatnonzero(~keep).astype(np.int64), kept.runs, kept.scalar_steps


# -- table-level discovery (partition semantics, §VI-A2) -------------------------


def discover_table_nuc(table: Table, column_name: str) -> DiscoveryResult:
    """NUC discovery with a global grouping, split per partition."""
    full_column = table.read_column(column_name)
    global_patches = discover_nuc_patches(full_column)
    per_partition: list[np.ndarray] = []
    row_counts: list[int] = []
    for partition in table.partitions:
        start, stop = partition.rowid_range
        lo = int(np.searchsorted(global_patches, start, side="left"))
        hi = int(np.searchsorted(global_patches, stop, side="left"))
        per_partition.append(global_patches[lo:hi] - start)
        row_counts.append(partition.row_count)
    return DiscoveryResult(
        ConstraintKind.UNIQUE, table.row_count, per_partition, row_counts
    )


def discover_table_nsc(
    table: Table,
    column_name: str,
    ascending: bool = True,
    strict: bool = False,
    scope: str = "global",
) -> DiscoveryResult:
    """NSC discovery, with selectable sortedness scope.

    ``scope="partition"`` is the paper's §VI-A2 design: the longest
    sorted subsequence is computed per partition, so the exclude stream
    of each partition is an independently sorted run — the right choice
    for partition-parallel execution where an exchange merges streams.

    ``scope="global"`` (default here) computes one subsequence across
    the whole table in rowid order, so the exclude stream is *globally*
    sorted.  In this serial engine that is the performance-equivalent
    realization: there is no parallel exchange to absorb the run merge,
    and a globally sorted exclude stream feeds MergeUnion/MergeJoin
    directly.  Patches are still stored partition-locally.
    """
    if scope not in ("global", "partition"):
        raise ValueError(f"unknown NSC scope {scope!r}")
    row_counts = [partition.row_count for partition in table.partitions]
    if scope == "partition":
        # A table has at least one partition, so the zip is never empty.
        per_partition, runs, scalar_steps = zip(
            *(
                _nsc_patches(partition.column(column_name), ascending, strict)
                for partition in table.partitions
            )
        )
        return DiscoveryResult(
            ConstraintKind.SORTED,
            table.row_count,
            list(per_partition),
            row_counts,
            runs=sum(runs),
            scalar_steps=sum(scalar_steps),
        )
    global_patches, runs, scalar_steps = _nsc_patches(
        table.read_column(column_name), ascending, strict
    )
    per_partition = []
    for partition in table.partitions:
        start, stop = partition.rowid_range
        lo = int(np.searchsorted(global_patches, start, side="left"))
        hi = int(np.searchsorted(global_patches, stop, side="left"))
        per_partition.append(global_patches[lo:hi] - start)
    return DiscoveryResult(
        ConstraintKind.SORTED,
        table.row_count,
        per_partition,
        row_counts,
        runs=runs,
        scalar_steps=scalar_steps,
    )


def discover(
    table: Table,
    column_name: str,
    kind: ConstraintKind | str,
    ascending: bool = True,
    strict: bool = False,
    scope: str = "global",
) -> DiscoveryResult:
    """Dispatch to the NUC or NSC table-level discovery."""
    if isinstance(kind, str):
        kind = ConstraintKind.from_name(kind)
    if kind == ConstraintKind.UNIQUE:
        return discover_table_nuc(table, column_name)
    return discover_table_nsc(
        table, column_name, ascending=ascending, strict=strict, scope=scope
    )


def nuc_discovery_sql(table_name: str, column_name: str) -> str:
    """The paper's SQL-level NUC discovery query (§IV), verbatim shape.

    Returns the tuple identifiers of all tuples whose value for
    *column_name* is duplicated or NULL.
    """
    return (
        f"select {table_name}.tid from {table_name}\n"
        f"left outer join\n"
        f"        (select {column_name} from {table_name}\n"
        f"        group by {column_name}\n"
        f"        having count(*) > 1)\n"
        f"        as temp\n"
        f"on {table_name}.{column_name} = temp.{column_name}\n"
        f"where temp.{column_name} is not null\n"
        f"or {table_name}.{column_name} is null"
    )
