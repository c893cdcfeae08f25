"""The catalog: named tables and the PatchIndexes defined on them.

The catalog deliberately stores indexes behind a minimal duck-typed
interface (``table_name``, ``column_name``, ``kind``, ``copy``) so the
storage layer does not depend on :mod:`repro.core`; the concrete class
lives in :mod:`repro.core.patch_index`.

The catalog and every copy of it share the database's plan cache
(:mod:`repro.plan.cache`), whose plans hold names, not tables.
``ddl_version`` advances on every table or index DDL; together with
:attr:`repro.storage.table.Table.data_version` it tells a current plan
from one to re-check — and a snapshot copy that is still current from
one that is not (:meth:`Catalog.versions`).

:attr:`Catalog.state_lock` is the database's one state lock.  Every
in-memory step of a live mutation holds it — table DDL here, the four
:class:`~repro.storage.table.Table` mutations with their listeners,
PatchIndex create, drop and rebuild — and a snapshot pin holds it while
it takes :meth:`Catalog.copy`, so a copy never sees half a statement.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.check.sanitize import make_lock
from repro.errors import CatalogError
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.cache import PlanCache


class Catalog:
    """Name → object mapping for tables and patch indexes."""

    def __init__(self, plan_cache: "PlanCache | None" = None) -> None:
        # repro.plan imports this module, so the import cannot be global.
        from repro.plan.cache import PlanCache

        self._tables: dict[str, Table] = {}
        self._indexes: dict[str, Any] = {}
        self.ddl_version = 0
        #: The database's plans by name, shared with every copy.
        self.plan_cache: "PlanCache" = PlanCache() if plan_cache is None else plan_cache
        #: Reentrant: DDL that holds it calls the catalog methods below.
        self.state_lock = make_lock("storage.catalog.state", reentrant=True)

    # -- tables -----------------------------------------------------------

    def add_table(self, table: Table) -> None:
        with self.state_lock:
            if table.name in self._tables:
                raise CatalogError(f"table {table.name!r} already exists")
            table.state_lock = self.state_lock
            self._tables[table.name] = table
            self.ddl_version += 1

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table: {name!r}") from None

    def drop_table(self, name: str) -> None:
        with self.state_lock:
            if name not in self._tables:
                raise CatalogError(f"unknown table: {name!r}")
            del self._tables[name]
            self.ddl_version += 1
            for index_name in [
                index_name
                for index_name, index in self._indexes.items()
                if index.table_name == name
            ]:
                del self._indexes[index_name]

    def tables(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    # -- patch indexes -------------------------------------------------------

    def add_index(self, index: Any) -> None:
        with self.state_lock:
            if index.name in self._indexes:
                raise CatalogError(f"index {index.name!r} already exists")
            if index.table_name not in self._tables:
                raise CatalogError(
                    f"index {index.name!r} references unknown table "
                    f"{index.table_name!r}"
                )
            self._indexes[index.name] = index
            self.ddl_version += 1

    def index(self, name: str) -> Any:
        try:
            return self._indexes[name]
        except KeyError:
            raise CatalogError(f"unknown index: {name!r}") from None

    def has_index(self, name: str) -> bool:
        return name in self._indexes

    def drop_index(self, name: str) -> None:
        with self.state_lock:
            if name not in self._indexes:
                raise CatalogError(f"unknown index: {name!r}")
            index = self._indexes.pop(name)
            self.ddl_version += 1
            table, column = index.table_name, index.column_name
            if index.kind == "unique" and not self.find_index(table, column, "unique"):
                for partition in self._tables[table].partitions:
                    partition.drop_key_order(column)
            detach = getattr(index, "detach", None)
            if detach is not None:
                detach()

    def indexes(self) -> Iterator[Any]:
        return iter(self._indexes.values())

    def indexes_on(self, table_name: str, column_name: str | None = None) -> list[Any]:
        """All indexes on a table, optionally restricted to one column."""
        return [
            index
            for index in self._indexes.values()
            if index.table_name == table_name
            and (column_name is None or index.column_name == column_name)
        ]

    def find_index(
        self, table_name: str, column_name: str, kind: str
    ) -> Any | None:
        """First index of *kind* ("unique" / "sorted") on table.column, if any."""
        for index in self._indexes.values():
            if (
                index.table_name == table_name
                and index.column_name == column_name
                and index.kind == kind
            ):
                return index
        return None

    # -- snapshots -------------------------------------------------------------

    def versions(self) -> tuple[int, tuple[int, ...]]:
        """``ddl_version`` and every table's ``data_version``: equal
        versions, equal contents (a copy taken at them is still current)."""
        with self.state_lock:
            return self.ddl_version, tuple(
                table.data_version for table in self._tables.values()
            )

    def copy(self) -> "Catalog":
        """Every table and index as of now, for a snapshot to keep.

        Tables share the live column vectors and segment sources
        (:meth:`Table.copy`), indexes get copied patch sets
        (``index.copy``), and the copy has a state lock of its own; it
        keeps ``ddl_version`` and shares :attr:`plan_cache`.
        The caller holds :attr:`state_lock`, so no mutation is half done
        in the copy; this method takes no lock, because the snapshot
        registry calls it under its own.
        """
        twin = Catalog(self.plan_cache)
        twin.ddl_version = self.ddl_version  # lock-ok: the caller holds it
        for name, table in self._tables.items():
            copied = table.copy()
            copied.state_lock = twin.state_lock
            twin._tables[name] = copied
        for name, index in self._indexes.items():
            twin._indexes[name] = index.copy(twin._tables[index.table_name])
        return twin
