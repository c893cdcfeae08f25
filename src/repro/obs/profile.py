"""Per-query profiles: instrumented operator trees (EXPLAIN ANALYZE).

Profiling is strictly opt-in: :func:`attach_profile` walks a physical
operator tree *after planning* and swaps each operator's ``open`` /
``next_batch`` for timing wrappers (instance attributes shadowing the
class methods), so an unprofiled query executes the exact same bytecode
as before this module existed: the path every ``bench_e2e`` run
measures.

Each operator gets one :class:`ProfileNode` recording rows out, batches
produced, and inclusive wall time (self time is derived at render
time).  Three operator kinds carry extra detail:

- ``PatchSelect`` — rows in, patch hits, mode, index name and physical
  design (via the operator's native opt-in counters; a use-patches
  PatchSelect reads only the patches, so its rows in are its hits);
- ``PatchCount`` — mode, index name, design, and the covered rows and
  patches it counted;
- ``TableScan`` — table name and base row count, and the blocks it
  decoded and found in the cache.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterator

from repro.exec.operators.base import Operator
from repro.exec.operators.patch_select import PatchCount, PatchSelect
from repro.exec.operators.scan import TableScan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.result import QueryResult


class ProfileNode:
    """Execution statistics of one operator in a profiled query."""

    __slots__ = (
        "label",
        "op_type",
        "estimated_rows",
        "rows",
        "batches",
        "seconds",
        "details",
        "children",
        "_operator",
    )

    def __init__(self, label: str, op_type: str, estimated_rows: int | None):
        self.label = label
        self.op_type = op_type
        self.estimated_rows = estimated_rows
        self.rows = 0
        self.batches = 0
        self.seconds = 0.0
        self.details: dict[str, object] = {}
        self.children: list["ProfileNode"] = []
        self._operator: Operator | None = None

    @property
    def self_seconds(self) -> float:
        """Wall time excluding instrumented children (clamped at 0)."""
        return max(0.0, self.seconds - sum(c.seconds for c in self.children))

    def walk(self) -> Iterator["ProfileNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def render(self, indent: int = 0) -> list[str]:
        estimate = (
            f" est~{self.estimated_rows}"
            if self.estimated_rows is not None
            else ""
        )
        line = (
            "  " * indent
            + f"{self.label}  [actual rows={self.rows} "
            + f"batches={self.batches} time={self.seconds * 1e3:.3f}ms"
            + estimate
            + "]"
        )
        if self.details:
            detail = " ".join(
                f"{key}={_fmt_detail(value)}"
                for key, value in sorted(self.details.items())
            )
            line += f" {{{detail}}}"
        lines = [line]
        for child in self.children:
            lines.extend(child.render(indent + 1))
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProfileNode({self.op_type}, rows={self.rows})"


def _fmt_detail(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


class QueryProfile:
    """The profile tree of one executed query."""

    def __init__(self, root: ProfileNode, query: str | None = None):
        self.root = root
        self.query = query
        self.total_seconds = 0.0
        self._finished = False

    # -- lifecycle ---------------------------------------------------------

    def finish(self, total_seconds: float) -> None:
        """Pull deferred operator counters."""
        if self._finished:
            return
        self._finished = True
        self.total_seconds = total_seconds
        _finalize_tree(self.root)
        for node in self.root.walk():
            hits = node.details.get("cache_hits")
            misses = node.details.get("cache_misses")
            if isinstance(hits, int) and isinstance(misses, int):
                lookups = hits + misses
                if lookups:
                    node.details["cache_hit_ratio"] = round(hits / lookups, 4)

    # -- accessors ---------------------------------------------------------

    def find(self, op_type: str) -> list[ProfileNode]:
        """All nodes of one operator type (e.g. ``"PatchSelect"``)."""
        return [node for node in self.root.walk() if node.op_type == op_type]

    # -- rendering ---------------------------------------------------------

    def to_text(self) -> str:
        header = f"== query profile ==  (total {self.total_seconds * 1e3:.3f}ms)"
        return "\n".join([header, *self.root.render()])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryProfile(total={self.total_seconds:.6f}s)"


# -- instrumentation -----------------------------------------------------------


def attach_profile(operator: Operator, query: str | None = None) -> QueryProfile:
    """Instrument a (not yet opened) operator tree for profiling."""
    return QueryProfile(_instrument_tree(operator), query)


def profile_collect(
    operator: Operator, query: str | None = None
) -> tuple["QueryResult", QueryProfile]:
    """Execute an operator tree with profiling; return result + profile."""
    from repro.exec.result import collect

    profile = attach_profile(operator, query)
    started = time.perf_counter()
    result = collect(operator)
    profile.finish(time.perf_counter() - started)
    return result, profile


def _instrument_tree(operator: Operator) -> ProfileNode:
    node = ProfileNode(
        operator.label(),
        type(operator).__name__,
        getattr(operator, "estimated_rows", None),
    )
    node._operator = operator

    if isinstance(operator, PatchSelect):
        operator.enable_stats()
        node.details["mode"] = operator.mode.value
        node.details["index"] = operator.index.name
        node.details["design"] = operator.index.design
        # Maintenance drift as of execution: how far conservative
        # incremental maintenance has grown this index's patch sets
        # past minimal, and whether a background rebuild is queued.
        # Rendered as a string: drift is a property, not a count.
        node.details["drift_rate"] = f"{operator.index.drift_rate():.4f}"
        if getattr(operator.index, "rebuild_pending", False):
            node.details["rebuild_pending"] = True
    elif isinstance(operator, PatchCount):
        node.details["mode"] = operator.mode.value
        node.details["index"] = operator.index.name
        node.details["design"] = operator.index.design
    elif isinstance(operator, TableScan):
        node.details["table"] = operator.table.name
        node.details["table_rows"] = operator.table.row_count

    original_next = operator.next_batch
    original_open = operator.open
    perf_counter = time.perf_counter

    def timed_next_batch():
        started = perf_counter()
        batch = original_next()
        node.seconds += perf_counter() - started
        if batch is not None:
            node.batches += 1
            node.rows += len(batch)
        return batch

    def timed_open():
        started = perf_counter()
        original_open()
        node.seconds += perf_counter() - started

    operator.next_batch = timed_next_batch  # type: ignore[method-assign]
    operator.open = timed_open  # type: ignore[method-assign]

    for child in operator.children():
        node.children.append(_instrument_tree(child))
    return node


def _finalize_tree(root: ProfileNode) -> None:
    """Pull deferred native counters (PatchSelect, PatchCount, TableScan)
    into the nodes."""
    for node in root.walk():
        operator = node._operator
        if isinstance(operator, PatchSelect) and operator.stats is not None:
            node.details["rows_in"] = operator.stats.rows_in
            node.details["patch_hits"] = operator.stats.patch_hits
        elif isinstance(operator, PatchCount) and operator.counted is not None:
            node.details["covered_rows"], node.details["patches"] = (
                operator.counted
            )
        elif isinstance(operator, TableScan):
            io = operator.io
            if io.blocks_decoded or io.cache_hits or io.bytes_decoded:
                node.details["blocks_decoded"] = io.blocks_decoded
                node.details["cache_hits"] = io.cache_hits
                node.details["cache_misses"] = io.cache_misses
                node.details["bytes_read"] = io.bytes_read
                node.details["bytes_decoded"] = io.bytes_decoded
            if io.cache_bypass is not None:
                node.details["cache_bypass"] = io.cache_bypass
        node._operator = None  # release the operator tree
