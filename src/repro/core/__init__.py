"""The paper's primary contribution: PatchIndex and approximate constraints.

Public surface:

- :class:`~repro.core.patch_index.PatchIndex` — the index structure
  maintaining the set of patches ``P_c`` for a column.
- :class:`~repro.core.patches.PatchSet` and its two physical designs,
  :class:`~repro.core.patches.IdentifierPatches` (sparse) and
  :class:`~repro.core.patches.BitmapPatches` (dense).
- :mod:`~repro.core.discovery` — NUC/NSC discovery producing patch sets.
- :mod:`~repro.core.constraints` — formal NUC/NSC definitions and
  validators.
- :class:`~repro.core.advisor.ConstraintAdvisor` — self-management tool
  proposing and creating PatchIndexes automatically.
- :mod:`~repro.core.maintenance` — incremental patch maintenance under
  inserts/deletes/updates (paper §VIII outlook).
- :data:`~repro.core.patches.REWRITE_BREAKEVEN` — the measured
  exception rate up to which each rewrite pays off: the optimizer's and
  the advisor's one gate.
"""

from repro.core.patches import (
    PatchSet,
    IdentifierPatches,
    BitmapPatches,
    IDENTIFIER_BITS,
    CROSSOVER_RATE,
    REWRITE_BREAKEVEN,
)
from repro.core.patch_index import PatchIndex, PatchIndexMode, PatchIndexStats
from repro.core.constraints import (
    ConstraintKind,
    check_nuc,
    check_nsc,
    exception_rate,
)
from repro.core.discovery import (
    discover_nuc_patches,
    discover_nsc_patches,
    DiscoveryResult,
)
from repro.core.lis import longest_sorted_subsequence_indices
from repro.core.advisor import ConstraintAdvisor, AdvisorProposal

__all__ = [
    "PatchSet",
    "IdentifierPatches",
    "BitmapPatches",
    "IDENTIFIER_BITS",
    "CROSSOVER_RATE",
    "REWRITE_BREAKEVEN",
    "PatchIndex",
    "PatchIndexMode",
    "PatchIndexStats",
    "ConstraintKind",
    "check_nuc",
    "check_nsc",
    "exception_rate",
    "discover_nuc_patches",
    "discover_nsc_patches",
    "DiscoveryResult",
    "longest_sorted_subsequence_indices",
    "ConstraintAdvisor",
    "AdvisorProposal",
]
