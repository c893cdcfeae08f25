"""The plan cache: optimized plans, and a verified operator tree each,
keyed by statement shape; one per database, shared by every snapshot copy.

Parse, bind, optimize, physical planning and plan verification never
read a literal's value — only its type; execution does, and so does
block pruning, which runs when a scan opens
(:attr:`~repro.exec.operators.scan.TableScan.prune`).  An entry
therefore keeps the *optimized logical* plan, its lifted literals marked
as slots (:attr:`Literal.slot`), and one physical tree of it, verified
(:func:`~repro.check.plan_verifier.verify_plan`) once when built, whose
slotted literals read each run's values from its
:class:`~repro.exec.expressions.Parameters`.  A hit takes the tree out of
its entry's slot, runs it and puts it back; a hit that finds the slot
empty, and every profiled or EXPLAINed read, builds its own.

The plan names its tables and indexes; beside it are the inputs the
optimizer read from data (:func:`repro.plan.optimizer.observe`) and the
scanned tables' data versions it last held at.  At those versions
(and its ``ddl_version``) a catalog hits; at others, if every input reads
the same again, the entry takes the versions if newer and drops its idle
tree (a re-check); else the statement plans afresh.  A tree's scans,
PatchSelects and PatchCounts take the running catalog's table and index
by name when it is taken and drop them when it is put back, so the cache
holds no table, index or patch set and keeps no snapshot copy alive.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator, NamedTuple

from repro.check.sanitize import make_lock
from repro.exec.expressions import Literal, Parameters, literal, map_literals
from repro.exec.operators import Operator, PatchCount, PatchSelect, TableScan
from repro.plan import logical as lp
from repro.plan.optimizer import observe
from repro.plan.physical import PhysicalPlanner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.optimizer import Optimizer
    from repro.storage.catalog import Catalog

#: Plans kept per database.  A served workload repeats a handful of
#: statement shapes; the bound keeps the footprint fixed.
CAPACITY = 64


class PlanTree(NamedTuple):
    """A verified tree, the values its slotted literals read, its
    operators that read a table or index (with their names) and the
    scanned tables' versions it was verified at."""

    root: Operator
    parameters: Parameters
    leaves: tuple[tuple[Any, str | None, str | None], ...]
    versions: tuple[int, ...]

    def bind(self, catalog: "Catalog | None") -> None:
        """Point every leaf at *catalog*'s table and index of its names
        (``None``: at nothing)."""
        for leaf, table, index in self.leaves:
            if table is not None:
                leaf.table = None if catalog is None else catalog.table(table)
            if index is not None:
                leaf.index = None if catalog is None else catalog.index(index)


@dataclass(eq=False)
class CachedPlan:
    """One optimized plan by name, what it was chosen on, the versions
    it last held at and a slot for one idle verified tree of it."""

    plan: lp.LogicalPlan  # scans' tables and PatchSelects' indexes: names
    #: True when every lifted literal survived optimization as exactly
    #: one slotted :class:`Literal`, so the plan serves any values.
    parameterized: bool
    ddl_version: int
    tables: tuple[str, ...]  # the scanned tables
    observed: tuple[tuple[tuple, object], ...]  # Optimizer.observed
    #: The tables' ``data_version`` values, set with :attr:`idle` under
    #: the :class:`PlanCache`'s lock; read without it, since a tree
    #: carries its own versions and goes only to a run at them.
    versions: tuple[int, ...]
    idle: list[PlanTree] = field(default_factory=list)

    def holds(self, catalog: "Catalog") -> bool:
        """Would the optimizer choose this plan again on *catalog*?"""
        return all(observe(catalog, probe) == seen for probe, seen in self.observed)


#: A cached plan's tables and indexes: their names and nothing else.
_Named = NamedTuple("_Named", [("name", str)])
_BY_NAME = SimpleNamespace(table=_Named, index=_Named)


def plan_entry(
    logical: lp.LogicalPlan,
    optimizer: "Optimizer",
    lifted: tuple[int, ...],
    ddl_version: int,
) -> CachedPlan:
    """*logical* optimized, by name.  Versions are read before optimizing,
    so a mutation racing it leaves an entry that is already stale."""
    tables = dict.fromkeys(
        node.table for node in _walk(logical) if isinstance(node, lp.LogicalScan)
    )
    versions = tuple(table.data_version for table in tables)
    optimized = optimizer.optimize(logical)
    return CachedPlan(
        bind_parameters(optimized, None, _BY_NAME),
        sorted(literal_slots(optimized)) == list(lifted),
        ddl_version,
        tuple(table.name for table in tables),
        tuple(optimizer.observed.items()),
        versions,
    )


class PlanCache:
    """A small thread-safe LRU of :class:`CachedPlan`.  The lock is a
    leaf: it guards the dictionary and the entries' versions and slots."""

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

    def recheck(self, entry: CachedPlan, versions: tuple[int, ...]) -> None:
        """*entry* held again at *versions*: take them if they are newer
        (a pin's are older), and drop its idle tree, verified at the old
        ones.  Every catalog is a copy of the live one, whose versions
        only grow, so of two catalogs' versions one is never below the
        other's anywhere."""
        with self._lock:
            if versions > entry.versions:
                entry.versions = versions
                entry.idle.clear()

    def take_tree(
        self, entry: CachedPlan, versions: tuple[int, ...], catalog: "Catalog"
    ) -> PlanTree | None:
        """*entry*'s idle tree verified at *versions*, now this caller's
        alone and bound to *catalog*; ``None`` when another caller holds
        it (or none was put back yet)."""
        with self._lock:
            if not entry.idle or entry.idle[0].versions != versions:
                return None
            tree = entry.idle.pop()
        tree.bind(catalog)
        return tree

    def put_tree(self, entry: CachedPlan, tree: PlanTree) -> None:
        """Return a tree that ran to completion, uninstrumented, to
        *entry*'s slot, bound to nothing, unless another tree got there
        first or the entry moved on to other versions."""
        tree.bind(None)
        with self._lock:
            if not entry.idle and tree.versions == entry.versions:
                entry.idle.append(tree)

    def discard(self, key: Hashable) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def literal_slots(plan: lp.LogicalPlan) -> list[int]:
    """Slots of the slotted literals in *plan*, one entry per occurrence."""
    found: list[int] = []

    def record(slotted: Literal) -> Literal:
        if slotted.slot is not None:
            found.append(slotted.slot)
        return slotted

    for node in _walk(plan):
        if isinstance(node, lp.LogicalFilter):
            map_literals(node.predicate, record)
        elif isinstance(node, lp.LogicalProject):
            for _, expression in node.outputs:
                map_literals(expression, record)
    return found


def build_tree(
    entry: CachedPlan,
    values: tuple[object, ...] | None,
    versions: tuple[int, ...],
    catalog: "Catalog",
) -> PlanTree:
    """A verified operator tree of *entry*'s plan, bound to *catalog* at
    *versions*, whose slotted literals read the tree's parameters, which
    start as *values* (``None``: the plan's literals are its own, as for
    an entry pinned to its text)."""
    parameters = Parameters(values or ())
    root = PhysicalPlanner().plan(
        bind_parameters(entry.plan, None, catalog),
        None if values is None else parameters,
    )
    leaves: list[tuple[Any, str | None, str | None]] = []
    stack = [root]
    while stack:
        operator = stack.pop()
        stack.extend(operator.children())
        if isinstance(operator, (TableScan, PatchSelect, PatchCount)):
            table = None if isinstance(operator, PatchSelect) else operator.table.name
            index = None if isinstance(operator, TableScan) else operator.index.name
            leaves.append((operator, table, index))
    return PlanTree(root, parameters, tuple(leaves), versions)


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

    return _bind(plan, rebind, catalog)


def _bind(
    node: lp.LogicalPlan,
    rebind: Callable[[Literal], Literal],
    catalog: "Catalog | SimpleNamespace | None",
) -> lp.LogicalPlan:
    # Not a closure calling itself: that is a cycle, keeping *catalog* alive.
    if catalog is not None and type(node) is lp.LogicalScan:
        table = catalog.table(node.table.name)
        return lp.LogicalScan(table, node.columns, node.with_tid)
    children = node.children()
    rebound = [_bind(child, rebind, catalog) for child in children]
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
        if shared and all(new[1] is old[1] for new, old in zip(outputs, node.outputs)):
            return node
        return lp.LogicalProject(rebound[0], outputs)
    if catalog is not None and type(node) is lp.LogicalPatchSelect:
        return lp.LogicalPatchSelect(
            rebound[0], catalog.index(node.index.name), node.use_patches
        )
    return node if shared else node.with_children(rebound)


def _walk(plan: lp.LogicalPlan) -> Iterator[lp.LogicalPlan]:
    yield plan
    for child in plan.children():
        yield from _walk(child)
