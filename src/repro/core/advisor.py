"""Self-management: automatic discovery and creation of PatchIndexes.

The paper positions PatchIndexes as the piece that lets self-managing
tools define constraints on *unclean* data (§I): where exact-constraint
discovery fails because a handful of tuples violate uniqueness or
sortedness, approximate constraints still capture the information.

:class:`ConstraintAdvisor` is that tool: it profiles candidate columns,
measures NUC/NSC exception rates (optionally on a row sample first, to
cheaply prune hopeless candidates), keeps a candidate only where the
optimizer would use it — below its threshold *and* below the breakeven
rate of the rewrite it serves (:data:`~repro.core.patches.REWRITE_BREAKEVEN`:
distinct for a NUC, sort for an NSC) — ranks the survivors by exception
rate, lowest first, and can create the chosen PatchIndexes through the
:class:`~repro.storage.database.Database` DDL path (so creation is
WAL-logged like any user-issued DDL).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constraints import ConstraintKind
from repro.core.discovery import (
    discover_nsc_patches,
    discover_nuc_patches,
    discover_table_nsc,
    discover_table_nuc,
)
from repro.core.patches import CROSSOVER_RATE, rewrite_pays_off
from repro.storage.database import Database
from repro.storage.table import Table
from repro.types import is_orderable


@dataclass(frozen=True)
class AdvisorProposal:
    """One recommended PatchIndex."""

    table_name: str
    column_name: str
    kind: ConstraintKind
    exception_rate: float
    patch_count: int
    row_count: int
    recommended_design: str

    @property
    def index_name(self) -> str:
        suffix = "nuc" if self.kind == ConstraintKind.UNIQUE else "nsc"
        return f"pidx_{self.table_name}_{self.column_name}_{suffix}"

    def describe(self) -> str:
        return (
            f"{self.table_name}.{self.column_name}: {self.kind.value} "
            f"rate={self.exception_rate:.2%} design={self.recommended_design}"
        )


class ConstraintAdvisor:
    """Profiles tables and proposes/creates PatchIndexes."""

    def __init__(
        self,
        database: Database,
        *,
        nuc_threshold: float = 0.1,
        nsc_threshold: float = 0.1,
        sample_rows: int | None = 100_000,
    ):
        """
        Parameters (all keyword-only)
        ----------
        nuc_threshold / nsc_threshold:
            The paper's threshold variables: columns whose exception
            rate exceeds them are not NUC/NSC candidates.
        sample_rows:
            When a table is larger than this, candidate pruning first
            estimates the rate on a contiguous-block sample and drops
            candidates whose *sampled* rate already exceeds twice the
            threshold; ``None`` disables sampling.
        """
        self.database = database
        self.nuc_threshold = nuc_threshold
        self.nsc_threshold = nsc_threshold
        self.sample_rows = sample_rows

    # -- profiling -------------------------------------------------------

    def analyze_table(
        self,
        table_name: str,
        columns: list[str] | None = None,
    ) -> list[AdvisorProposal]:
        """Profile one table and return ranked proposals."""
        table = self.database.table(table_name)
        names = list(columns) if columns is not None else list(table.schema.names)
        proposals: list[AdvisorProposal] = []
        for name in names:
            proposals.extend(self._analyze_column(table, name))
        proposals.sort(key=lambda proposal: proposal.exception_rate)
        return proposals

    def analyze_all(self) -> list[AdvisorProposal]:
        """Profile every table in the catalog."""
        proposals: list[AdvisorProposal] = []
        for name in self.database.catalog.table_names():
            proposals.extend(self.analyze_table(name))
        proposals.sort(key=lambda proposal: proposal.exception_rate)
        return proposals

    def _analyze_column(self, table: Table, name: str) -> list[AdvisorProposal]:
        field = table.schema.field(name)
        rows = table.row_count
        if rows == 0:
            return []
        out: list[AdvisorProposal] = []
        if self._worth_full_scan(table, name, ConstraintKind.UNIQUE):
            result = discover_table_nuc(table, name)
            if result.exception_rate <= self.nuc_threshold and rewrite_pays_off(
                "distinct", rows, result.patch_count
            ):
                out.append(self._proposal(table, name, result))
        if is_orderable(field.dtype) and self._worth_full_scan(
            table, name, ConstraintKind.SORTED
        ):
            result = discover_table_nsc(table, name)
            if result.exception_rate <= self.nsc_threshold and rewrite_pays_off(
                "sort", rows, result.patch_count
            ):
                out.append(self._proposal(table, name, result))
        return out

    def _proposal(self, table, name, result) -> AdvisorProposal:
        rate = result.exception_rate
        return AdvisorProposal(
            table_name=table.name,
            column_name=name,
            kind=result.kind,
            exception_rate=rate,
            patch_count=result.patch_count,
            row_count=result.row_count,
            recommended_design="identifier" if rate <= CROSSOVER_RATE else "bitmap",
        )

    def _worth_full_scan(
        self, table: Table, name: str, kind: ConstraintKind
    ) -> bool:
        """Sample-based candidate pruning (cheap upper-level filter).

        Samples a contiguous prefix block of each partition.  For NUC the
        sampled duplicate rate *underestimates* the global rate, so the
        filter only prunes when the sample alone already exceeds twice
        the threshold; for NSC a contiguous block's disorder rate is an
        unbiased local signal, pruned with the same slack.
        """
        if self.sample_rows is None or table.row_count <= self.sample_rows:
            return True
        per_partition = max(1, self.sample_rows // table.partition_count)
        threshold = (
            self.nuc_threshold
            if kind == ConstraintKind.UNIQUE
            else self.nsc_threshold
        )
        sampled = 0
        patched = 0
        for partition in table.partitions:
            take = min(per_partition, partition.row_count)
            if take == 0:
                continue
            chunk = partition.column(name).slice(0, take)
            if kind == ConstraintKind.UNIQUE:
                patched += len(discover_nuc_patches(chunk))
            else:
                patched += len(discover_nsc_patches(chunk))
            sampled += take
        if sampled == 0:
            return True
        return patched / sampled <= 2 * threshold

    # -- enactment ------------------------------------------------------------

    def apply(self, proposals: list[AdvisorProposal]) -> list[str]:
        """Create the proposed PatchIndexes (skipping ones that exist).

        Returns the names of the indexes actually created.
        """
        created: list[str] = []
        for proposal in proposals:
            existing = self.database.catalog.find_index(
                proposal.table_name, proposal.column_name, proposal.kind.value
            )
            if existing is not None:
                continue
            threshold = (
                self.nuc_threshold
                if proposal.kind == ConstraintKind.UNIQUE
                else self.nsc_threshold
            )
            self.database.create_patch_index(
                proposal.index_name,
                proposal.table_name,
                proposal.column_name,
                kind=proposal.kind.value,
                mode="auto",
                threshold=threshold,
            )
            created.append(proposal.index_name)
        return created

    def run(self) -> list[str]:
        """One full self-management cycle: analyze everything, apply."""
        return self.apply(self.analyze_all())
