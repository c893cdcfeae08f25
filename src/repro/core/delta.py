"""Typed patch-set deltas: the single mutation channel for PatchIndexes.

Incremental maintenance (:mod:`repro.core.maintenance`) used to mutate
patch sets ad hoc inside its event handlers; this module turns every
such mutation into a first-class :class:`PatchDelta` — an ordered tuple
of :class:`DeltaOp` membership operations plus bookkeeping counters —
that the rest of the stack can log, replay and observe:

- the maintainer *classifies* a table mutation into a delta and applies
  it through :func:`apply_ops` (the only code path allowed to call the
  :class:`~repro.core.patches.PatchSet` mutation methods — lint rule
  L10 enforces this);
- the durable engine serializes deltas into ``patch_delta`` WAL records
  (:meth:`PatchDelta.to_payload`, CRC-32 checksummed) and replays them
  over checkpoint-persisted patch sets on recovery, falling back to the
  paper's rebuild-from-data path when a delta is missing or corrupt;
- :func:`record_delta_stats` updates
  :class:`~repro.core.maintenance.MaintenanceStats` identically on the
  live path and on replay, so a recovered index reports the same drift
  it had before the crash.

Every op is *self-contained*: applying a delta needs only the patch
sets, never the table state at the time the delta was produced.  That
is what makes pure replay possible — recovery restores table data first
(the existing path, untouched) and then replays deltas separately.

Op vocabulary (all rowids are partition-local):

``extend``
    Grow one partition's relation to ``row_count`` rows and mark the
    listed appended rowids as patches (append / load classification).
``add``
    Mark existing rowids as patches (demotions, update path).
``remove``
    Promote rowids out of the patch set (update re-classification).
``remap``
    Delete the listed rowids and renumber survivors densely (the
    delete path; rowids are in the pre-delete numbering).
``invalidate``
    The index was rebuilt from data; the delta stream no longer
    describes the patch sets.  Replay must fall back to rebuild.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.maintenance import MaintenanceStats
    from repro.core.patches import PatchSet

OP_EXTEND = "extend"
OP_ADD = "add"
OP_REMOVE = "remove"
OP_REMAP = "remap"
OP_INVALIDATE = "invalidate"

_KNOWN_OPS = frozenset({OP_EXTEND, OP_ADD, OP_REMOVE, OP_REMAP, OP_INVALIDATE})

#: Delta events mirroring the table mutations that produce them, plus
#: ``rebuild`` for the invalidation marker a live rebuild emits.
_KNOWN_EVENTS = frozenset({"append", "load", "delete", "update", "rebuild"})


@dataclass(frozen=True)
class DeltaOp:
    """One patch-membership operation against one partition's patch set."""

    op: str
    partition_id: int = -1
    #: Partition-local rowids: appended patches for ``extend``, existing
    #: rows for ``add``/``remove``, deleted rows (pre-delete numbering,
    #: ascending) for ``remap``.  Unused by ``invalidate``.
    rowids: tuple[int, ...] = ()
    #: Post-op relation size of the partition (``extend`` only).
    row_count: int = -1

    def to_json(self) -> dict:
        out: dict = {"op": self.op}
        if self.op != OP_INVALIDATE:
            out["partition_id"] = self.partition_id
            out["rowids"] = list(self.rowids)
        if self.op == OP_EXTEND:
            out["row_count"] = self.row_count
        return out

    @classmethod
    def from_json(cls, raw: dict) -> "DeltaOp":
        op = raw.get("op")
        if op not in _KNOWN_OPS:
            raise StorageError(f"unknown delta op: {op!r}")
        return cls(
            op=op,
            partition_id=int(raw.get("partition_id", -1)),
            rowids=tuple(int(r) for r in raw.get("rowids", ())),
            row_count=int(raw.get("row_count", -1)),
        )


def extend_op(
    partition_id: int, row_count: int, rowids: Iterable[int]
) -> DeltaOp:
    return DeltaOp(
        OP_EXTEND,
        partition_id=partition_id,
        rowids=tuple(int(r) for r in rowids),
        row_count=int(row_count),
    )


def add_op(partition_id: int, rowids: Iterable[int]) -> DeltaOp:
    return DeltaOp(
        OP_ADD, partition_id=partition_id, rowids=tuple(int(r) for r in rowids)
    )


def remove_op(partition_id: int, rowids: Iterable[int]) -> DeltaOp:
    return DeltaOp(
        OP_REMOVE,
        partition_id=partition_id,
        rowids=tuple(int(r) for r in rowids),
    )


def remap_op(partition_id: int, deleted: Iterable[int]) -> DeltaOp:
    return DeltaOp(
        OP_REMAP,
        partition_id=partition_id,
        rowids=tuple(int(r) for r in deleted),
    )


def invalidate_op() -> DeltaOp:
    return DeltaOp(OP_INVALIDATE)


@dataclass(frozen=True)
class PatchDelta:
    """All patch-set changes one index derived from one table mutation."""

    index_name: str
    table_name: str
    #: The table mutation that produced the delta (or ``"rebuild"``).
    event: str
    ops: tuple[DeltaOp, ...] = ()
    #: Rows the mutation touched (appended/loaded count, 1 for update,
    #: deleted count) — drives the handled-event stat counters.
    rows: int = 0
    #: Previously-kept rows the delta demoted into the patch set.
    demoted: int = 0

    def __post_init__(self) -> None:
        if self.event not in _KNOWN_EVENTS:
            raise StorageError(f"unknown delta event: {self.event!r}")

    @property
    def invalidates(self) -> bool:
        """True when replaying past this delta is impossible (rebuild)."""
        return any(op.op == OP_INVALIDATE for op in self.ops)

    def patches_added(self) -> int:
        return sum(
            len(op.rowids) for op in self.ops if op.op in (OP_EXTEND, OP_ADD)
        )

    def patches_removed(self) -> int:
        return sum(len(op.rowids) for op in self.ops if op.op == OP_REMOVE)

    # -- WAL payload (de)serialization ----------------------------------

    def _body(self, applies_to: int | None) -> dict:
        return {
            "index": self.index_name,
            "table": self.table_name,
            "event": self.event,
            "applies_to": applies_to,
            "rows": self.rows,
            "demoted": self.demoted,
            "ops": [op.to_json() for op in self.ops],
        }

    def to_payload(self, applies_to: int | None = None) -> dict:
        """WAL-record payload: the delta body plus a CRC-32 checksum.

        *applies_to* links the delta to the LSN of the data record whose
        mutation produced it; recovery uses the link to detect gaps (a
        data record without its delta forces the rebuild fallback).
        """
        body = self._body(applies_to)
        body["checksum"] = delta_checksum(body)
        return body

    @classmethod
    def from_payload(cls, payload: dict) -> "tuple[PatchDelta, int | None]":
        """Parse and checksum-verify a WAL payload.

        Returns ``(delta, applies_to)``.  Raises
        :class:`~repro.errors.StorageError` on a malformed payload or a
        checksum mismatch — recovery treats either as "delta absent" and
        falls back to rebuild-from-data.
        """
        if not isinstance(payload, dict):
            raise StorageError(f"malformed patch-delta payload: {payload!r}")
        body = {key: value for key, value in payload.items() if key != "checksum"}
        expected = payload.get("checksum")
        actual = delta_checksum(body)
        if expected != actual:
            raise StorageError(
                f"patch-delta checksum mismatch: {expected!r} != {actual}"
            )
        try:
            applies_to = body["applies_to"]
            delta = cls(
                index_name=body["index"],
                table_name=body["table"],
                event=body["event"],
                ops=tuple(DeltaOp.from_json(raw) for raw in body["ops"]),
                rows=int(body.get("rows", 0)),
                demoted=int(body.get("demoted", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(
                f"malformed patch-delta payload: {payload!r}"
            ) from exc
        if applies_to is not None and not isinstance(applies_to, int):
            raise StorageError(f"malformed applies_to: {applies_to!r}")
        return delta, applies_to


def delta_checksum(body: dict) -> int:
    """CRC-32 over the canonical JSON form of a delta body."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


# -- application --------------------------------------------------------------


def apply_ops(
    partition_patches: Sequence["PatchSet"], ops: Iterable[DeltaOp]
) -> None:
    """Apply membership ops to per-partition patch sets, in order.

    This is the *only* place patch-set mutation methods may be called
    from outside :mod:`repro.core.patches` itself (lint rule L10): the
    live maintainer, WAL-delta recovery and snapshot replay all funnel
    through here, so every path mutates membership identically.
    """
    for op in ops:
        if op.op == OP_INVALIDATE:
            raise StorageError(
                "an invalidate delta cannot be applied; the index must be "
                "rebuilt from data"
            )
        if not 0 <= op.partition_id < len(partition_patches):
            raise StorageError(
                f"delta op references partition {op.partition_id} of "
                f"{len(partition_patches)}"
            )
        patches = partition_patches[op.partition_id]
        rowids = np.asarray(op.rowids, dtype=np.int64)
        if op.op == OP_EXTEND:
            patches.extend(op.row_count, rowids)
        elif op.op == OP_ADD:
            patches.add(rowids)
        elif op.op == OP_REMOVE:
            patches.remove(rowids)
        elif op.op == OP_REMAP:
            patches.remap_after_delete(rowids)
        else:  # pragma: no cover - _KNOWN_OPS guards construction
            raise StorageError(f"unknown delta op: {op.op!r}")


def record_delta_stats(stats: "MaintenanceStats", delta: PatchDelta) -> None:
    """Fold one applied delta into the drift counters.

    Shared by the live maintainer and WAL-delta replay so a restored
    index reports exactly the drift it had accumulated before the crash.
    """
    if delta.event == "append":
        stats.appends_handled += 1
        stats.rows_appended += delta.rows
    elif delta.event == "load":
        stats.loads_handled += 1
        stats.rows_appended += delta.rows
    elif delta.event == "delete":
        stats.deletes_handled += 1
    elif delta.event == "update":
        stats.updates_handled += 1
    stats.patches_added += delta.patches_added()
    stats.patches_removed += delta.patches_removed()
    stats.kept_rows_demoted += delta.demoted
