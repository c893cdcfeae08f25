"""The PatchIndex structure (paper §V).

A PatchIndex maintains the set of patches ``P_c`` for one column of one
table.  Partitioning is transparent: the index holds one
:class:`~repro.core.patches.PatchSet` per table partition in the
partition-local rowid space (paper §VI-A2), and translates global rowid
ranges to the owning partitions when queried by the PatchSelect
operator.

Physical design selection follows §V: the caller picks the
identifier-based or bitmap-based representation explicitly, or leaves it
to ``AUTO`` which selects identifier-based when the discovered exception
rate is at most ``1/64 ≈ 1.56 %`` and bitmap-based otherwise — the
memory crossover point of 64-bit rowids vs 1 bit per tuple.

Index creation runs the discovery of :mod:`repro.core.discovery`
("AppendToIndex" post-query in the paper) and records wall-clock
creation time, which the Figure-6 benchmark reports.
"""

from __future__ import annotations

import copy
import enum
import time
import weakref
from dataclasses import dataclass, replace

import numpy as np

from repro.core.constraints import ConstraintKind
from repro.core.discovery import DiscoveryResult, discover
from repro.core.patches import CROSSOVER_RATE, PatchSet
from repro.errors import StorageError, ThresholdExceededError
from repro.storage.table import Table


class PatchIndexMode(enum.Enum):
    """Physical design selector for the patch sets."""

    AUTO = "auto"
    IDENTIFIER = "identifier"
    BITMAP = "bitmap"

    def resolve(self, rate: float) -> str:
        """Concrete design for a discovered exception *rate*."""
        if self == PatchIndexMode.IDENTIFIER:
            return "identifier"
        if self == PatchIndexMode.BITMAP:
            return "bitmap"
        return "identifier" if rate <= CROSSOVER_RATE else "bitmap"


@dataclass(frozen=True)
class PatchIndexStats:
    """Summary statistics of a PatchIndex (used by EXPLAIN and benchmarks)."""

    name: str
    table_name: str
    column_name: str
    kind: str
    design: str
    row_count: int
    patch_count: int
    exception_rate: float
    memory_bytes: int
    creation_seconds: float
    partition_patch_counts: tuple[int, ...]
    #: How this index came to exist: "user" for explicit creation,
    #: "recovery" for one a reopen restored or re-discovered (paper §V).
    provenance: str = "user"


class PatchIndex:
    """An index over the constraint-violating tuples of one column."""

    def __init__(
        self,
        name: str,
        table: Table,
        column_name: str,
        kind: ConstraintKind,
        partition_patches: list[PatchSet],
        threshold: float,
        ascending: bool = True,
        strict: bool = False,
        scope: str = "global",
        creation_seconds: float = 0.0,
        provenance: str = "user",
        mode: PatchIndexMode | None = None,
    ):
        if len(partition_patches) != table.partition_count:
            raise StorageError(
                "one PatchSet per table partition is required "
                f"({len(partition_patches)} != {table.partition_count})"
            )
        self.name = name
        self.table = table
        self.column_name = column_name
        self.constraint_kind = kind
        self.threshold = threshold
        self.ascending = ascending
        self.strict = strict
        self.scope = scope
        self.creation_seconds = creation_seconds
        self.provenance = provenance
        #: Design selector the index was created with; ``None`` for
        #: directly-constructed indexes of unknown provenance.  The plan
        #: verifier uses it to enforce the 1/64 crossover contract.
        self.mode = mode
        self.rebuild_count = 0
        #: Set past the drift threshold by the owning database; a
        #: background sweep (:meth:`Database.run_pending_rebuilds`, the
        #: server's writer loop) rebuilds and clears it.
        self.rebuild_pending = False
        #: Callable ``(index, event)`` told of every maintained table
        #: event and of every rebuild (``"rebuild"``) — the owning
        #: database wires this to the drift gauge, rebuild scheduling and
        #: the WAL's ``rebuild_index`` record.  ``None`` for detached
        #: indexes (snapshots, recovery, tests).
        self.delta_sink = None
        #: ``(rows, runs, scalar_steps)`` of the NSC discovery that built
        #: the current patch sets (see :class:`DiscoveryResult`); ``None``
        #: for NUC and for patch sets that were restored, not discovered.
        self.nsc_discovery: tuple[int, int, int] | None = None
        self._partition_patches = partition_patches
        self._maintainer = None  # see _maintenance()
        self._listener = self._on_table_event
        table.add_listener(self._listener)

    # -- catalog duck-typed surface ----------------------------------------

    @property
    def table_name(self) -> str:
        return self.table.name

    @property
    def kind(self) -> str:
        """Constraint kind as a string ("unique" / "sorted")."""
        return self.constraint_kind.value

    @property
    def design(self) -> str:
        """Physical design actually in use ("identifier" / "bitmap")."""
        return self._partition_patches[0].design if self._partition_patches else "identifier"

    def definition(self) -> dict:
        """What a ``create_index`` record and the checkpoint's head carry
        for this index: enough to discover it again (paper §V)."""
        return {
            "name": self.name,
            "table": self.table_name,
            "column": self.column_name,
            "kind": self.kind,
            "mode": self.mode.value if self.mode is not None else None,
            "threshold": self.threshold,
            "scope": self.scope,
            "ascending": self.ascending,
            "strict": self.strict,
        }

    def detach(self) -> None:
        """Unregister from table mutation events (called on DROP)."""
        try:
            self.table.remove_listener(self._listener)
        except ValueError:  # already detached
            pass

    def copy(self, table: Table) -> "PatchIndex":
        """This index as of now, over *table* — a copy of its own table.

        The copy has its own patch sets and drift counters, keeps the
        mode, ``rebuild_count`` and ``rebuild_pending``, and has no table
        listener and no ``delta_sink``: nothing moves it after the copy
        (:meth:`repro.storage.catalog.Catalog.copy` is the caller).

        It refers to itself through nothing but a weak proxy, so
        reference counting frees it — and the superseded column vectors
        its table shares — as soon as the last reader drops it, not at
        some later cyclic collection.
        """
        from repro.core.maintenance import IndexMaintainer

        twin = copy.copy(self)
        twin.table = table
        twin._partition_patches = [
            patches.copy() for patches in self._partition_patches
        ]
        twin.delta_sink = None
        twin._listener = None
        if self._maintainer is not None:
            twin._maintainer = IndexMaintainer(weakref.proxy(twin))
            twin._maintainer.stats = replace(self._maintainer.stats)
        return twin

    # -- creation ------------------------------------------------------------

    @classmethod
    def create(
        cls,
        name: str,
        table: Table,
        column_name: str,
        kind: ConstraintKind | str,
        mode: PatchIndexMode = PatchIndexMode.AUTO,
        threshold: float = 1.0,
        ascending: bool = True,
        strict: bool = False,
        scope: str = "global",
        provenance: str = "user",
        enforce_threshold: bool = True,
    ) -> "PatchIndex":
        """Discover patches and build the index (the "AppendToIndex" path).

        Raises :class:`~repro.errors.ThresholdExceededError` when the
        discovered exception rate is above *threshold* — the column then
        is not a NUC/NSC under that threshold (conditions NUC3/NSC2).
        ``enforce_threshold=False`` skips that check: WAL replay rebuilds
        an index that was legitimately created even if maintenance has
        since drifted the column past its threshold (*provenance* then
        records ``"recovery"``).
        """
        if isinstance(kind, str):
            kind = ConstraintKind.from_name(kind)
        table.schema.field(column_name)  # validate the column exists
        started = time.perf_counter()
        result = discover(
            table, column_name, kind, ascending=ascending, strict=strict,
            scope=scope,
        )
        if enforce_threshold and not result.satisfies(threshold):
            raise ThresholdExceededError(
                column_name, result.exception_rate, threshold
            )
        partition_patches = _patch_sets(result, mode)
        elapsed = time.perf_counter() - started
        index = cls(
            name,
            table,
            column_name,
            kind,
            partition_patches,
            threshold,
            ascending=ascending,
            strict=strict,
            scope=scope,
            creation_seconds=elapsed,
            provenance=provenance,
            mode=mode,
        )
        index._note_discovery(result)
        return index

    # -- query surface (used by PatchSelect) ------------------------------------

    def mask_for_range(self, start: int, stop: int) -> np.ndarray:
        """Boolean patch-membership mask for the global rowid range
        ``[start, stop)``, stitched across partitions.

        This is what the ``exclude_patches`` PatchSelect consumes: it
        keeps the rows where the mask is False.
        """
        if start == stop:
            return np.zeros(0, dtype=np.bool_)
        pieces = [
            patches.mask_for_range(lo, hi)
            for patches, lo, hi, __ in self._local_ranges(start, stop)
        ]
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces)

    def rowids_in_range(self, start: int, stop: int) -> np.ndarray:
        """The patch rowids of the global range ``[start, stop)``,
        ascending, stitched across partitions: the rows a
        ``use_patches`` scan gathers (paper §VI-A3)."""
        pieces = [
            patches.rowids_in_range(lo, hi) + base
            for patches, lo, hi, base in self._local_ranges(start, stop)
        ]
        if not pieces:
            return np.empty(0, dtype=np.int64)
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces)

    def _local_ranges(
        self, start: int, stop: int
    ) -> list[tuple[PatchSet, int, int, int]]:
        """``(patch set, local start, local stop, base rowid)`` for each
        partition the global range ``[start, stop)`` overlaps."""
        pieces: list[tuple[PatchSet, int, int, int]] = []
        covered = start
        for partition, patches in zip(
            self.table.partitions, self._partition_patches
        ):
            p_start, p_stop = partition.rowid_range
            lo = max(covered, p_start)
            hi = min(stop, p_stop)
            if lo >= hi:
                continue
            pieces.append((patches, lo - p_start, hi - p_start, p_start))
            covered = hi
        if covered != stop:
            raise StorageError(
                f"rowid range [{start}, {stop}) exceeds table "
                f"(covered up to {covered})"
            )
        return pieces

    def partition_patches(self, partition_id: int) -> PatchSet:
        """The partition-local patch set (partition-transparent access)."""
        return self._partition_patches[partition_id]

    def rowids(self) -> np.ndarray:
        """All patch rowids in the global rowid space, ascending."""
        return self.rowids_in_range(0, self.table.row_count)

    def contains(self, rowid: int) -> bool:
        partition = self.table.partition_of_rowid(rowid)
        patches = self._partition_patches[partition.partition_id]
        return patches.contains(rowid - partition.base_rowid)

    # -- statistics ----------------------------------------------------------------

    @property
    def patch_count(self) -> int:
        return sum(patches.patch_count() for patches in self._partition_patches)

    @property
    def exception_rate(self) -> float:
        rows = self.table.row_count
        if rows == 0:
            return 0.0
        return self.patch_count / rows

    def memory_usage_bytes(self) -> int:
        return sum(
            patches.memory_usage_bytes() for patches in self._partition_patches
        )

    def stats(self) -> PatchIndexStats:
        return PatchIndexStats(
            name=self.name,
            table_name=self.table_name,
            column_name=self.column_name,
            kind=self.kind,
            design=self.design,
            row_count=self.table.row_count,
            patch_count=self.patch_count,
            exception_rate=self.exception_rate,
            memory_bytes=self.memory_usage_bytes(),
            creation_seconds=self.creation_seconds,
            partition_patch_counts=tuple(
                patches.patch_count() for patches in self._partition_patches
            ),
            provenance=self.provenance,
        )

    def describe(self) -> str:
        stats = self.stats()
        return (
            f"patchindex {stats.name} on {stats.table_name}({stats.column_name}) "
            f"kind={stats.kind} design={stats.design} "
            f"patches={stats.patch_count}/{stats.row_count} "
            f"({stats.exception_rate:.2%}) mem={stats.memory_bytes}B"
        )

    # -- maintenance plumbing ------------------------------------------------------

    def maintenance_stats(self):
        """Counters describing patch-set drift since creation, or None
        when the table has not been mutated (see
        :class:`repro.core.maintenance.MaintenanceStats`)."""
        if self._maintainer is None:
            return None
        return self._maintainer.stats

    def drift_rate(self) -> float:
        """Patches added by conservative maintenance relative to the
        table size — a self-management tool's rebuild signal."""
        stats = self.maintenance_stats()
        if stats is None or self.table.row_count == 0:
            return 0.0
        return stats.patches_added / self.table.row_count

    def rebuild(self) -> None:
        """Re-run discovery to restore a minimal patch set, discarding
        maintenance drift.  The design is re-resolved through the mode
        the index was created with, so an explicit ``identifier`` /
        ``bitmap`` survives the rebuild as it survives a reopen.

        Tells the sink, which logs a ``rebuild_index`` record on a
        durable engine: recovery re-runs the rebuild at that point of the
        log, so a reopen lands on the same patch sets.  Runs under the
        table's state lock, so a snapshot pin sees the index before or
        after the rebuild, never during it.
        """
        with self.table.state_lock:
            result = discover(
                self.table,
                self.column_name,
                self.constraint_kind,
                ascending=self.ascending,
                strict=self.strict,
                scope=self.scope,
            )
            self._partition_patches = _patch_sets(
                result, self.mode or PatchIndexMode.AUTO
            )
            self._maintainer = None
            self._note_discovery(result)
            self.rebuild_count += 1
            self.rebuild_pending = False
            self.table.touch()
            if self.delta_sink is not None:
                self.delta_sink(self, "rebuild")

    def _note_discovery(self, result: DiscoveryResult) -> None:
        if result.kind == ConstraintKind.SORTED:
            self.nsc_discovery = (
                result.row_count, result.runs, result.scalar_steps
            )

    def publish_discovery(self, metrics) -> None:
        """Add the discovery behind the current patch sets to the
        ``core.discovery.nsc.{rows,runs,scalar_steps}`` counters of
        *metrics*: ``scalar_steps`` near ``rows`` says the column was not
        nearly sorted and discovery took its slow path."""
        if self.nsc_discovery is None:
            return
        for name, amount in zip(("rows", "runs", "scalar_steps"), self.nsc_discovery):
            metrics.counter(f"core.discovery.nsc.{name}").inc(amount)

    def _maintenance(self):
        """The index's maintainer, created on the first mutation."""
        from repro.core.maintenance import IndexMaintainer

        if self._maintainer is None:
            self._maintainer = IndexMaintainer(self)
        return self._maintainer

    def seed_maintenance_stats(self, stats) -> None:
        """Install persisted drift counters on a restored index."""
        self._maintenance().stats = stats

    def _on_table_event(self, event: str, payload: dict) -> None:
        """Forward table mutations to the incremental maintainer."""
        if self._maintenance().handle(event, payload) and self.delta_sink is not None:
            self.delta_sink(self, event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PatchIndex({self.describe()})"


def _patch_sets(result: DiscoveryResult, mode: PatchIndexMode) -> list[PatchSet]:
    """One patch set per partition of *result*, in the design *mode*
    resolves for the discovered exception rate."""
    design = mode.resolve(result.exception_rate)
    return [
        PatchSet.build(local_rowids, rows, design)
        for local_rowids, rows in zip(
            result.per_partition_rowids, result.partition_row_counts
        )
    ]
