"""Logical plan nodes.

The logical plan is what the SQL binder produces and what the optimizer
rewrites.  Nodes are immutable trees; each node derives its output
schema from its children against a catalog-resolved base (scans resolve
table schemas at construction).

Three nodes exist purely for the PatchIndex rewrites —
:class:`LogicalPatchSelect`, :class:`LogicalMergeUnion` and
:class:`LogicalMergeJoin` (the blue operators of the paper's Figure 3).
The binder never creates them; only the optimizer introduces them, and
the physical planner maps them 1:1 onto their operators.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import PlanError
from repro.exec.expressions import Expression
from repro.exec.operators.aggregate import AggregateSpec
from repro.exec.operators.scan import TID_COLUMN
from repro.exec.operators.sort import SortKey
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.patch_index import PatchIndex


class LogicalPlan(abc.ABC):
    """Base class for logical plan nodes."""

    @property
    @abc.abstractmethod
    def schema(self) -> Schema:
        """Output schema of the node."""

    @abc.abstractmethod
    def children(self) -> list["LogicalPlan"]:
        """Input nodes."""

    @abc.abstractmethod
    def with_children(self, children: list["LogicalPlan"]) -> "LogicalPlan":
        """Rebuild this node with replaced children (same arity)."""

    def label(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)


def _require_arity(children: list[LogicalPlan], arity: int) -> None:
    if len(children) != arity:
        raise PlanError(f"expected {arity} children, got {len(children)}")


@dataclass(frozen=True)
class LogicalScan(LogicalPlan):
    """Scan of a base table, optionally projecting columns / adding tid.

    A filter above it restricts the physical scan to the blocks its
    predicate can match, when the scan opens
    (:attr:`repro.exec.operators.scan.TableScan.prune`).
    """

    table: Table
    columns: tuple[str, ...] | None = None
    with_tid: bool = False

    @property
    def schema(self) -> Schema:
        names = (
            list(self.columns)
            if self.columns is not None
            else list(self.table.schema.names)
        )
        fields = [self.table.schema.field(name) for name in names]
        if self.with_tid:
            fields.append(Field(TID_COLUMN, DataType.INT64, nullable=False))
        return Schema(fields)

    def children(self) -> list[LogicalPlan]:
        return []

    def with_children(self, children: list[LogicalPlan]) -> "LogicalScan":
        _require_arity(children, 0)
        return self

    def label(self) -> str:
        suffix = " +tid" if self.with_tid else ""
        return f"Scan({self.table.name}{suffix})"


@dataclass(frozen=True)
class LogicalFilter(LogicalPlan):
    child: LogicalPlan
    predicate: Expression

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def with_children(self, children: list[LogicalPlan]) -> "LogicalFilter":
        _require_arity(children, 1)
        return LogicalFilter(children[0], self.predicate)

    def label(self) -> str:
        return f"Filter({self.predicate})"


@dataclass(frozen=True)
class LogicalProject(LogicalPlan):
    child: LogicalPlan
    outputs: tuple[tuple[str, Expression], ...]

    @property
    def schema(self) -> Schema:
        child_schema = self.child.schema
        return Schema(
            Field(alias, expression.output_type(child_schema))
            for alias, expression in self.outputs
        )

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def with_children(self, children: list[LogicalPlan]) -> "LogicalProject":
        _require_arity(children, 1)
        return LogicalProject(children[0], self.outputs)

    def label(self) -> str:
        rendered = ", ".join(
            f"{expression} AS {alias}" for alias, expression in self.outputs
        )
        return f"Project({rendered})"


@dataclass(frozen=True)
class LogicalDistinct(LogicalPlan):
    child: LogicalPlan

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def with_children(self, children: list[LogicalPlan]) -> "LogicalDistinct":
        _require_arity(children, 1)
        return LogicalDistinct(children[0])

    def label(self) -> str:
        return "Distinct"


@dataclass(frozen=True)
class LogicalAggregate(LogicalPlan):
    child: LogicalPlan
    group_by: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]

    @property
    def schema(self) -> Schema:
        child_schema = self.child.schema
        fields = [child_schema.field(name) for name in self.group_by]
        fields.extend(spec.output_field(child_schema) for spec in self.aggregates)
        return Schema(fields)

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def with_children(self, children: list[LogicalPlan]) -> "LogicalAggregate":
        _require_arity(children, 1)
        return LogicalAggregate(children[0], self.group_by, self.aggregates)

    def label(self) -> str:
        keys = ", ".join(self.group_by) if self.group_by else "<global>"
        aggs = ", ".join(
            f"{spec.func}({spec.column or '*'})" for spec in self.aggregates
        )
        return f"Aggregate(by=[{keys}], [{aggs}])"


@dataclass(frozen=True)
class LogicalSort(LogicalPlan):
    child: LogicalPlan
    keys: tuple[SortKey, ...]

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def with_children(self, children: list[LogicalPlan]) -> "LogicalSort":
        _require_arity(children, 1)
        return LogicalSort(children[0], self.keys)

    def label(self) -> str:
        return f"Sort({', '.join(str(key) for key in self.keys)})"


@dataclass(frozen=True)
class LogicalLimit(LogicalPlan):
    child: LogicalPlan
    limit: int
    offset: int = 0

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def with_children(self, children: list[LogicalPlan]) -> "LogicalLimit":
        _require_arity(children, 1)
        return LogicalLimit(children[0], self.limit, self.offset)

    def label(self) -> str:
        return f"Limit({self.limit}, offset={self.offset})"


@dataclass(frozen=True)
class LogicalJoin(LogicalPlan):
    """Equi-join (``inner`` or ``left_outer``).  ``left`` is the probe
    side in the default hash-join realization; ``right`` is the build
    side.  Left-outer joins preserve unmatched left rows and make the
    right columns nullable."""

    left: LogicalPlan
    right: LogicalPlan
    left_key: str
    right_key: str
    join_type: str = "inner"

    @property
    def schema(self) -> Schema:
        right_fields = list(self.right.schema.fields)
        if self.join_type == "left_outer":
            right_fields = [
                Field(field.name, field.dtype, True) for field in right_fields
            ]
        return Schema(list(self.left.schema.fields) + right_fields)

    def children(self) -> list[LogicalPlan]:
        return [self.left, self.right]

    def with_children(self, children: list[LogicalPlan]) -> "LogicalJoin":
        _require_arity(children, 2)
        return LogicalJoin(
            children[0], children[1], self.left_key, self.right_key, self.join_type
        )

    def label(self) -> str:
        return f"Join({self.left_key} = {self.right_key}, {self.join_type})"


@dataclass(frozen=True)
class LogicalUnionAll(LogicalPlan):
    inputs: tuple[LogicalPlan, ...]

    @property
    def schema(self) -> Schema:
        return self.inputs[0].schema

    def children(self) -> list[LogicalPlan]:
        return list(self.inputs)

    def with_children(self, children: list[LogicalPlan]) -> "LogicalUnionAll":
        _require_arity(children, len(self.inputs))
        return LogicalUnionAll(tuple(children))

    def label(self) -> str:
        return f"UnionAll({len(self.inputs)})"


# -- optimizer-introduced nodes (the blue operators of Figure 3) -----------------


@dataclass(frozen=True)
class LogicalPatchSelect(LogicalPlan):
    """PatchSelect directly above a scan (child must be a LogicalScan)."""

    child: LogicalPlan
    index: "PatchIndex" = field(repr=False)
    use_patches: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.child, LogicalScan):
            raise PlanError("LogicalPatchSelect child must be a scan")

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def children(self) -> list[LogicalPlan]:
        return [self.child]

    def with_children(self, children: list[LogicalPlan]) -> "LogicalPatchSelect":
        _require_arity(children, 1)
        return LogicalPatchSelect(children[0], self.index, self.use_patches)

    def label(self) -> str:
        mode = "use_patches" if self.use_patches else "exclude_patches"
        return f"PatchSelect({mode}, index={self.index.name})"


@dataclass(frozen=True)
class LogicalMergeUnion(LogicalPlan):
    left: LogicalPlan
    right: LogicalPlan
    keys: tuple[SortKey, ...]

    @property
    def schema(self) -> Schema:
        return self.left.schema

    def children(self) -> list[LogicalPlan]:
        return [self.left, self.right]

    def with_children(self, children: list[LogicalPlan]) -> "LogicalMergeUnion":
        _require_arity(children, 2)
        return LogicalMergeUnion(children[0], children[1], self.keys)

    def label(self) -> str:
        return f"MergeUnion({', '.join(str(key) for key in self.keys)})"


@dataclass(frozen=True)
class LogicalMergeJoin(LogicalPlan):
    left: LogicalPlan
    right: LogicalPlan
    left_key: str
    right_key: str

    @property
    def schema(self) -> Schema:
        return Schema(
            list(self.left.schema.fields) + list(self.right.schema.fields)
        )

    def children(self) -> list[LogicalPlan]:
        return [self.left, self.right]

    def with_children(self, children: list[LogicalPlan]) -> "LogicalMergeJoin":
        _require_arity(children, 2)
        return LogicalMergeJoin(
            children[0], children[1], self.left_key, self.right_key
        )

    def label(self) -> str:
        return f"MergeJoin({self.left_key} = {self.right_key})"
