"""The plan cache: optimized plans, and a verified operator tree each,
keyed by statement shape.

Parse, bind, optimize, physical planning and plan verification never
read a literal's value — only its type; execution does, and so does
block pruning, which runs when a scan opens
(:attr:`~repro.exec.operators.scan.TableScan.prune`).  The cache
therefore keeps the *optimized logical* plan of a statement, with the
literals lifted out of the text marked as slots (:attr:`Literal.slot`),
and beside it one physical tree built from it and verified
(:func:`~repro.check.plan_verifier.verify_plan`) once, whose slotted
literals read this execution's values from the tree's
:class:`~repro.exec.expressions.Parameters` (:func:`build_tree`).  A hit
takes that tree out of its entry's one-tree slot under the cache's leaf
lock, sets the values, runs it and puts it back (:meth:`PlanCache.take_tree`,
:meth:`PlanCache.put_tree`).  A hit that finds the slot empty (another
reader holds the tree), and every profiled or EXPLAINed read, builds and
verifies a tree of its own instead; an instrumented tree never goes back.
Every tree that runs has passed the verifier, once, when it was built.

Each :class:`~repro.storage.catalog.Catalog` (the live one, every
snapshot copy) keeps :class:`CachedPlan` entries bound to its own tables,
current while its ``ddl_version`` and each scanned table's
``data_version`` are unchanged; they die with the catalog.  The database
keeps one :class:`PlanTemplate` per shape, shared by all its catalogs:
the plan by table and index name, and every input the optimizer read
from data (:func:`repro.plan.optimizer.observe`).  A catalog without a
current entry re-checks the template — same ``ddl_version``, every input
the same — and re-binds it by name; otherwise it plans afresh.  A
template holds no table, index, patch set or tree, so it keeps no pin
alive.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import TYPE_CHECKING, Hashable, Iterator, NamedTuple

from repro.check.sanitize import make_lock
from repro.exec.expressions import (
    Expression,
    Literal,
    Parameters,
    literal,
    map_literals,
)
from repro.exec.operators.base import Operator
from repro.plan import logical as lp
from repro.plan.optimizer import observe
from repro.plan.physical import PhysicalPlanner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.optimizer import Optimizer
    from repro.storage.catalog import Catalog
    from repro.storage.table import Table

#: Plans kept per catalog, and templates per database.  A served workload
#: repeats a handful of statement shapes; the bound keeps the footprint fixed.
CAPACITY = 64


class PlanTree(NamedTuple):
    """A verified operator tree and the values its slotted literals read."""

    root: Operator
    parameters: Parameters


@dataclass(frozen=True)
class CachedPlan:
    """One optimized logical plan, the versions it was planned at and a
    slot for one idle verified tree of it."""

    plan: lp.LogicalPlan
    #: True when every lifted literal survived optimization as exactly
    #: one slotted :class:`Literal`, so the plan serves any values.
    parameterized: bool
    ddl_version: int
    table_versions: tuple[tuple["Table", int], ...]
    #: At most one idle tree; guarded by the owning :class:`PlanCache`'s
    #: lock (:meth:`PlanCache.take_tree`).
    idle: list[PlanTree] = field(default_factory=list, compare=False)

    def is_current(self, catalog: "Catalog") -> bool:
        return self.ddl_version == catalog.ddl_version and all(
            table.data_version == version
            for table, version in self.table_versions
        )


@dataclass(frozen=True)
class PlanTemplate:
    """An optimized plan by name, and what it was chosen on."""

    plan: lp.LogicalPlan  # scans' tables and PatchSelects' indexes: names
    parameterized: bool
    ddl_version: int
    tables: tuple[str, ...]  # the scanned tables
    observed: tuple[tuple[tuple, object], ...]  # Optimizer.observed

    def holds(self, catalog: "Catalog") -> bool:
        """Would the optimizer choose this plan again on *catalog*?"""
        return all(observe(catalog, probe) == seen for probe, seen in self.observed)


#: A template's tables and indexes: their names and nothing else.
_Named = NamedTuple("_Named", [("name", str)])
_BY_NAME = SimpleNamespace(table=_Named, index=_Named)


def template(entry: CachedPlan, optimizer: "Optimizer") -> PlanTemplate:
    """*entry*, which *optimizer* just built, as a catalog-free template."""
    return PlanTemplate(
        bind_parameters(entry.plan, None, _BY_NAME),
        entry.parameterized,
        entry.ddl_version,
        tuple(table.name for table, _ in entry.table_versions),
        tuple(optimizer.observed.items()),
    )


class PlanCache:
    """A small thread-safe LRU of :class:`CachedPlan` or :class:`PlanTemplate`.

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

    def take_tree(self, entry: CachedPlan) -> PlanTree | None:
        """*entry*'s idle tree, now this caller's alone; ``None`` when
        another caller holds it (or none was put back yet)."""
        with self._lock:
            return entry.idle.pop() if entry.idle else None

    def put_tree(self, entry: CachedPlan, tree: PlanTree) -> None:
        """Return a tree that ran to completion, uninstrumented, to
        *entry*'s slot, unless another tree got there first."""
        with self._lock:
            if not entry.idle:
                entry.idle.append(tree)

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

    def record(slotted: Literal) -> Literal:
        if slotted.slot is not None:
            found.append(slotted.slot)
        return slotted

    for node in _walk(plan):
        for expression in _expressions(node):
            map_literals(expression, record)
    return found


def build_tree(entry: CachedPlan, values: tuple[object, ...] | None) -> PlanTree:
    """A verified operator tree of *entry*'s plan whose slotted literals
    read the tree's parameters, which start as *values* (``None``: the
    plan's literals are its own, as for an entry pinned to its text)."""
    parameters = Parameters(values or ())
    root = PhysicalPlanner().plan(entry.plan, None if values is None else parameters)
    return PlanTree(root, parameters)


def bind_parameters(
    plan: lp.LogicalPlan,
    values: tuple[object, ...] | None,
    catalog: "Catalog | SimpleNamespace | None" = None,
) -> lp.LogicalPlan:
    """*plan* with every slotted literal carrying ``values[slot]`` (none
    when *values* is None) and, given a *catalog*, each scan's table and
    PatchSelect's index that catalog's object of the same name.

    The value goes through the same :func:`literal` constructor the
    binder applied; nodes that change in neither way are shared.
    """

    def rebind(slotted: Literal) -> Literal:
        if values is None or slotted.slot is None or slotted.dtype is None:
            return slotted
        return literal(values[slotted.slot], slotted.dtype, slotted.slot)

    def visit(node: lp.LogicalPlan) -> lp.LogicalPlan:
        if catalog is not None and type(node) is lp.LogicalScan:
            table = catalog.table(node.table.name)
            return lp.LogicalScan(table, node.columns, node.with_tid)
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
        if catalog is not None and type(node) is lp.LogicalPatchSelect:
            return lp.LogicalPatchSelect(
                rebound[0], catalog.index(node.index.name), node.use_patches
            )
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
