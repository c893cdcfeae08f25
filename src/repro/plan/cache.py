"""The plan cache: optimized logical plans keyed by statement shape.

Parse, bind and optimize never read a literal's value — only its type —
while the physical planner (scan-range derivation, the parallel cost
gate, plan verification) and execution do.  The cache therefore keeps
the *optimized logical* plan of a statement, with the literals lifted
out of the text marked as slots (:attr:`Literal.slot`), and
:func:`bind_parameters` swaps this execution's values in; physical
planning, :func:`~repro.check.plan_verifier.verify_plan` and execution
run every time.

A plan is only reusable while what the optimizer looked at still holds:
which tables and indexes exist (the catalog's ``ddl_version``) and each
scanned table's rows, patch counts and sortedness (its
``data_version``).  :class:`CachedPlan` records both at planning time
and :meth:`CachedPlan.is_current` compares them on lookup.

The cache is a fixed-size LRU owned by a
:class:`~repro.storage.catalog.Catalog`, so its plans reference only
that catalog's tables and are collected with it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterator

from repro.check.sanitize import make_lock
from repro.exec.expressions import Expression, Literal, map_literals
from repro.plan import logical as lp
from repro.types.datatypes import coerce_scalar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.catalog import Catalog
    from repro.storage.table import Table

#: Plans kept per catalog.  A served workload repeats a handful of
#: statement shapes; the bound is what keeps a catalog's footprint fixed.
CAPACITY = 64


@dataclass(frozen=True)
class CachedPlan:
    """One optimized logical plan and the versions it was planned at."""

    plan: lp.LogicalPlan
    #: True when every lifted literal survived optimization as exactly
    #: one slotted :class:`Literal`, so the plan serves any values.
    parameterized: bool
    ddl_version: int
    table_versions: tuple[tuple["Table", int], ...]

    def is_current(self, catalog: "Catalog") -> bool:
        return self.ddl_version == catalog.ddl_version and all(
            table.data_version == version
            for table, version in self.table_versions
        )


class PlanCache:
    """A small thread-safe LRU of :class:`CachedPlan` entries.

    The lock is a leaf: it guards the dictionary only and is never held
    across binding, optimization, planning or execution.
    """

    def __init__(self) -> None:
        self._lock = make_lock("sql.plan_cache")
        self._entries: OrderedDict[Hashable, CachedPlan] = OrderedDict()

    def get(self, key: Hashable) -> CachedPlan | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: Hashable, entry: CachedPlan) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > CAPACITY:
                self._entries.popitem(last=False)

    def discard(self, key: Hashable) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def table_versions(plan: lp.LogicalPlan) -> tuple[tuple["Table", int], ...]:
    """Every scanned table of *plan* with its current ``data_version``."""
    tables = dict.fromkeys(
        node.table for node in _walk(plan) if isinstance(node, lp.LogicalScan)
    )
    return tuple((table, table.data_version) for table in tables)


def literal_slots(plan: lp.LogicalPlan) -> list[int]:
    """Slots of the slotted literals in *plan*, one entry per occurrence."""
    found: list[int] = []

    def record(literal: Literal) -> Literal:
        if literal.slot is not None:
            found.append(literal.slot)
        return literal

    for node in _walk(plan):
        for expression in _expressions(node):
            map_literals(expression, record)
    return found


def bind_parameters(
    plan: lp.LogicalPlan, values: tuple[object, ...]
) -> lp.LogicalPlan:
    """*plan* with every slotted literal carrying ``values[slot]``.

    The value goes through the same :func:`coerce_scalar` the binder
    applied; nodes without slotted literals below them are shared with
    the cached plan, not copied.
    """

    def rebind(literal: Literal) -> Literal:
        if literal.slot is None or literal.dtype is None:
            return literal
        return Literal(
            coerce_scalar(values[literal.slot], literal.dtype),
            literal.dtype,
            literal.slot,
        )

    def visit(node: lp.LogicalPlan) -> lp.LogicalPlan:
        children = node.children()
        rebound = [visit(child) for child in children]
        shared = all(new is old for new, old in zip(rebound, children))
        if isinstance(node, lp.LogicalFilter):
            predicate = map_literals(node.predicate, rebind)
            if shared and predicate is node.predicate:
                return node
            return lp.LogicalFilter(rebound[0], predicate)
        if isinstance(node, lp.LogicalProject):
            outputs = tuple(
                (alias, map_literals(expression, rebind))
                for alias, expression in node.outputs
            )
            if shared and all(
                new[1] is old[1] for new, old in zip(outputs, node.outputs)
            ):
                return node
            return lp.LogicalProject(rebound[0], outputs)
        return node if shared else node.with_children(rebound)

    return visit(plan)


def _walk(plan: lp.LogicalPlan) -> Iterator[lp.LogicalPlan]:
    yield plan
    for child in plan.children():
        yield from _walk(child)


def _expressions(node: lp.LogicalPlan) -> Iterator[Expression]:
    """The scalar expressions a logical node evaluates."""
    if isinstance(node, lp.LogicalFilter):
        yield node.predicate
    elif isinstance(node, lp.LogicalProject):
        for _, expression in node.outputs:
            yield expression
