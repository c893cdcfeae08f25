"""Physical operators (volcano-over-batches)."""

from repro.exec.operators.base import Operator
from repro.exec.operators.scan import TableScan
from repro.exec.operators.patch_select import (
    PatchCount,
    PatchSelect,
    PatchSelectMode,
)
from repro.exec.operators.filter import Filter
from repro.exec.operators.project import Project
from repro.exec.operators.aggregate import HashAggregate, AggregateSpec
from repro.exec.operators.distinct import Distinct
from repro.exec.operators.sort import Sort, SortKey
from repro.exec.operators.topn import TopN
from repro.exec.operators.limit import Limit
from repro.exec.operators.union import UnionAll
from repro.exec.operators.merge_union import MergeUnion
from repro.exec.operators.hash_join import HashJoin
from repro.exec.operators.merge_join import MergeJoin

__all__ = [
    "Operator",
    "TableScan",
    "PatchCount",
    "PatchSelect",
    "PatchSelectMode",
    "Filter",
    "Project",
    "HashAggregate",
    "AggregateSpec",
    "Distinct",
    "Sort",
    "SortKey",
    "TopN",
    "Limit",
    "UnionAll",
    "MergeUnion",
    "HashJoin",
    "MergeJoin",
]
