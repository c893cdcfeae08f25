"""Incremental PatchIndex maintenance under inserts, loads, deletes and updates.

The paper names lightweight support for table mutations as the key
follow-up feature of PatchIndexes (§VIII): because the index already
*maintains exceptions*, a mutation that would violate the constraint can
simply add the offending tuples to the patch set instead of forcing a
full table scan or rejecting the write.

This module implements that idea with a deliberately *conservative*
policy: the maintained patch set always remains **correct** (all NUC/NSC
conditions keep holding over ``R \\ P_c``) but is allowed to drift away
from **minimal**.  Re-creating the index re-establishes minimality; the
drift is observable through :class:`MaintenanceStats` so a
self-management tool can schedule a rebuild.

Every handler re-classifies the rows one mutation touched and changes
patch-set membership itself — the only code outside
:mod:`repro.core.patches` allowed to (lint rule L10).  The WAL carries
the data mutation, never its patch changes: recovery replays the data
records through :class:`~repro.storage.table.Table` and this same
maintainer re-classifies them, exactly as it did live.

The classifier holds nothing but its drift counters.  Any valid patch
set answers queries correctly, so membership is decided from the data at
the moment of the mutation — a lookup of the mutated rows' values in the
table, the way the authors' follow-up maintains a NUC by joining the
inserted tuples against the table (arXiv 2102.06557).  Each partition's
patch set remembers how many rows it accounts for; whatever lies beyond
that count in the partition is the event's new rows.  The lookup goes
through the partition's key order
(:meth:`~repro.storage.partition.Partition.key_holders`): a sort of the
column's rows, derived from data and not from patch sets, so two NUCs on
one column share it, a rebuild or a restore of the patch sets leaves it
alone, and a delete or an update adjusts it instead of re-sorting.  It
is not the kept-value hash map an earlier version built per index
(12–25 MiB and 160–320 ms per build at 200 k rows, rebuilt after every
delete, restore and snapshot): the order costs 8 B per row, ~1.5 ms per
50 k INT64 rows once, and no snapshot copy builds or carries one.

Policies per event:

**append / load** (new rows at the tail of one / every partition)
    - NSC: greedy extension — a new value that does not break the sorted
      tail (read from the partition's last kept row at the time of the
      call) is kept, anything else (including NULL) becomes a patch.
      A global-scope NSC additionally patches every new row landing in a
      partition *before* the last one — those rows sit between existing
      kept rows in global rowid order, so only the final partition's
      tail can extend the global sorted subsequence.  ``O(batch)``.
    - NUC: a new row is a patch when it is NULL, when its value occurs
      twice among the new rows, or when any accounted row holds its
      value; a *kept* row holding it moves into the patch set as well
      (condition NUC2).  One ``np.unique`` over the batch, then per
      partition two binary searches per needle through the key order —
      ``O(batch · log |partition|)`` plus the rows appended since the
      partition's last lookup, which are merged into the order first.
      A STRING order searches ``hash()`` keys and checks each hit against
      the value (EXPERIMENTS.md, "Key orders").

**delete**
    - patch sets are remapped to the new dense rowid numbering; deleting
      rows never un-sorts a sorted remainder nor un-uniquifies unique
      values, so no new patches arise.

**update** (point update of the indexed column)
    - the updated row is re-classified: it joins the patch set when the
      new value violates the constraint (for NUC, a kept row holding the
      same value is demoted as well — NUC2), and a patched NUC row whose
      new value no other row holds is *promoted* back out of the patch
      set.  A NUC update looks its one value up like a one-row append,
      after the table moved the row's entry in the key order.  Updates to
      other columns are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.constraints import ConstraintKind
from repro.storage.column import ColumnVector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.patch_index import PatchIndex
    from repro.core.patches import PatchSet
    from repro.storage.partition import Partition

#: (partition, first new local rowid, partition row count) of one event.
Tail = tuple["Partition", int, int]

#: (partition id, local rowids) of kept rows that NUC2 moves into the patch set.
Demotion = tuple[int, np.ndarray]


@dataclass
class MaintenanceStats:
    """Counters describing how far the patch set drifted from minimal."""

    appends_handled: int = 0
    loads_handled: int = 0
    deletes_handled: int = 0
    updates_handled: int = 0
    rows_appended: int = 0
    patches_added: int = 0
    patches_removed: int = 0
    kept_rows_demoted: int = 0
    extra: dict = field(default_factory=dict)

    _PERSISTED = (
        "appends_handled",
        "loads_handled",
        "deletes_handled",
        "updates_handled",
        "rows_appended",
        "patches_added",
        "patches_removed",
        "kept_rows_demoted",
    )

    def to_payload(self) -> dict:
        """JSON form persisted with the checkpointed patch sets."""
        return {name: getattr(self, name) for name in self._PERSISTED}

    @classmethod
    def from_payload(cls, payload: dict) -> "MaintenanceStats":
        """Unknown keys (an older writer's counters) are ignored."""
        return cls(**{name: int(payload.get(name, 0)) for name in cls._PERSISTED})


def _tail_row(patches: "PatchSet") -> int | None:
    """Local rowid of the last accounted row that is not a patch."""
    stop = patches.row_count
    while stop > 0:
        # 4096 rows at a time: the last kept row is almost always in the
        # first window, and one mask over the partition would be O(partition).
        start = max(0, stop - 4096)
        kept = np.flatnonzero(~patches.mask_for_range(start, stop))
        if len(kept):
            return start + int(kept[-1])
        stop = start
    return None


class IndexMaintainer:
    """Re-classifies one index's rows under its table's mutations."""

    def __init__(self, index: "PatchIndex"):
        self.index = index
        self.stats = MaintenanceStats()

    # -- event dispatch ---------------------------------------------------

    def handle(self, event: str, payload: dict) -> bool:
        """Classify one table mutation and change the patch sets to match.

        Returns False for events that do not concern the index (an
        update of another column, unknown event kinds): forward
        compatibility with table mutations that cannot affect validity.
        """
        stats = self.stats
        if event in ("append", "load"):
            stats.rows_appended += self._grow()
            if event == "append":
                stats.appends_handled += 1
            else:
                stats.loads_handled += 1
        elif event == "delete":
            self._delete(payload)
            stats.deletes_handled += 1
        elif event == "update" and payload["column"] == self.index.column_name:
            self._update(payload)
            stats.updates_handled += 1
        else:
            return False
        return True

    # -- changing membership ---------------------------------------------------

    def _add(self, partition_id: int, rowids: np.ndarray) -> None:
        self.index._partition_patches[partition_id].add(rowids)
        self.stats.patches_added += len(rowids)

    def _demote(self, demotions: list[Demotion]) -> None:
        for partition_id, rowids in demotions:
            self._add(partition_id, rowids)
            self.stats.kept_rows_demoted += len(rowids)

    def _extend(self, partition_id: int, row_count: int, rowids: np.ndarray) -> None:
        """Account for a partition grown to *row_count*, *rowids* of the
        new rows as patches."""
        self.index._partition_patches[partition_id].extend(row_count, rowids)
        self.stats.patches_added += len(rowids)

    # -- reading the data ----------------------------------------------------

    def _holders(
        self, needles: np.ndarray, skip: tuple[int, int] | None = None
    ) -> tuple[np.ndarray, list[Demotion]]:
        """Which of *needles* some accounted row holds, and the NUC2 demotions.

        *needles* is sorted and unique.  Per partition, the rows its
        patch set accounts for — an event's new rows lie beyond them — are
        searched through the partition's key order
        (:meth:`~repro.storage.partition.Partition.key_holders`); *skip*
        names one ``(partition_id, local rowid)`` to leave out (an updated
        row is not its own twin).  Returns a mask over *needles* and, per
        partition, the *kept* holders that move into the patch set.
        """
        index = self.index
        held = np.zeros(len(needles), dtype=np.bool_)
        demotions: list[Demotion] = []
        if len(needles) == 0:  # a batch of NULLs
            return held, demotions
        for partition, patches in zip(index.table.partitions, index._partition_patches):
            which, rows = partition.key_holders(
                index.column_name, needles, patches.row_count
            )
            if skip is not None and skip[0] == partition.partition_id:
                other = rows != skip[1]
                which, rows = which[other], rows[other]
            if len(rows) == 0:
                continue
            held[which] = True
            kept = rows[~patches.contains_rows(rows)]
            if len(kept):
                demotions.append((partition.partition_id, np.sort(kept)))
        return held, demotions

    def _sorted_tail(self, partition_id: int) -> object | None:
        """Value the sorted subsequence ends with before *partition_id*'s
        new rows: its last kept row's, or under global scope the last
        kept row's of the nearest partition before it that has one."""
        index = self.index
        first = 0 if index.scope == "global" else partition_id
        for candidate in range(partition_id, first - 1, -1):
            local = _tail_row(index._partition_patches[candidate])
            if local is not None:
                partition = index.table.partitions[candidate]
                return partition.column(index.column_name).values[local]
        return None

    # -- append / load -------------------------------------------------------

    def _grow(self) -> int:
        """Classify the rows beyond what each patch set accounts for, and
        return how many there were.

        Neither payload is read: an append grew the last partition, a
        load any of them, and the patch sets' row counts say by how much.
        """
        index = self.index
        tails: list[Tail] = [
            (partition, patches.row_count, partition.row_count)
            for partition, patches in zip(
                index.table.partitions, index._partition_patches
            )
            if partition.row_count > patches.row_count
        ]
        if index.constraint_kind == ConstraintKind.SORTED:
            self._sorted_growth(tails)
        else:
            self._unique_growth(tails)
        return sum(stop - start for _, start, stop in tails)

    def _sorted_growth(self, tails: list[Tail]) -> None:
        # Extending one partition leaves the tail value of every other
        # unchanged (its new rows are all patches under global scope),
        # so each partition may be extended as soon as it is classified.
        index = self.index
        last_partition = len(index.table.partitions) - 1
        for partition, start, stop in tails:
            if index.scope == "global" and partition.partition_id != last_partition:
                new_patches = np.arange(start, stop)
            else:
                extends = self._extends(
                    self._sorted_tail(partition.partition_id),
                    partition.column(index.column_name).slice(start, stop),
                )
                new_patches = start + np.flatnonzero(~extends)
            self._extend(partition.partition_id, stop, new_patches)

    def _extends(self, last: object | None, column: ColumnVector) -> np.ndarray:
        """Which of *column*'s rows the greedy extension keeps.

        The greedy tail only ever moves to the extreme of what it has
        seen, so row ``i`` is kept iff it compares against the running
        extreme of *last* and the non-NULL rows before it.
        """
        valid = column.validity_or_all_true()
        values = column.values[valid]
        kept = np.zeros(len(column), dtype=np.bool_)
        if len(values) == 0:
            return kept
        head = values[:1] if last is None else np.array([last], dtype=values.dtype)
        if self.index.ascending:
            bound = np.maximum.accumulate(np.concatenate((head, values)))[:-1]
            ok = values > bound if self.index.strict else values >= bound
        else:
            bound = np.minimum.accumulate(np.concatenate((head, values)))[:-1]
            ok = values < bound if self.index.strict else values <= bound
        if last is None:
            ok[0] = True
        kept[valid] = ok
        return kept

    def _unique_growth(self, tails: list[Tail]) -> None:
        name = self.index.column_name
        batch = ColumnVector.concat(
            [
                partition.column(name).slice(start, stop)
                for partition, start, stop in tails
            ]
        )
        valid = batch.validity_or_all_true()
        needles, inverse, counts = np.unique(
            batch.values[valid], return_inverse=True, return_counts=True
        )
        # Looked up before any patch set grows: the new rows are not
        # accounted yet, so no new row counts as its own holder.
        held, demotions = self._holders(needles)
        taken = held | (counts > 1)
        is_patch = ~valid
        is_patch[valid] = taken[inverse]
        offset = 0
        for partition, start, stop in tails:
            piece = is_patch[offset : offset + stop - start]
            offset += stop - start
            self._extend(partition.partition_id, stop, start + np.flatnonzero(piece))
        self._demote(demotions)

    # -- delete ---------------------------------------------------------------------

    def _delete(self, payload: dict) -> None:
        """Drop the deleted rows and renumber the survivors densely."""
        for partition_id, local_deleted in payload["per_partition"]:
            if len(local_deleted):
                self.index._partition_patches[partition_id].remap_after_delete(
                    local_deleted
                )

    # -- update ----------------------------------------------------------------------

    def _update(self, payload: dict) -> None:
        """Re-classify one row from the value the table now holds."""
        index = self.index
        partition_id = payload["partition_id"]
        partition = index.table.partitions[partition_id]
        local = payload["rowid"] - partition.base_rowid
        patches = index._partition_patches[partition_id]
        was_patch = patches.contains(local)
        if index.constraint_kind == ConstraintKind.UNIQUE:
            column = partition.column(index.column_name)
            if column.is_valid(local):
                held, demotions = self._holders(
                    column.values[local : local + 1], skip=(partition_id, local)
                )
                self._demote(demotions)  # the kept holders of the value (NUC2)
                if not held[0]:  # no other row holds it: the row is unique
                    if was_patch:
                        patches.remove(np.array([local], dtype=np.int64))
                        self.stats.patches_removed += 1
                    return
        # Conservative for NSC: a kept row that moved leaves the
        # subsequence.  A NULL is always a patch.
        if not was_patch:
            self._add(partition_id, np.array([local], dtype=np.int64))
