"""Unit tests for the catalog."""

import pytest

from repro.core.patch_index import PatchIndex
from repro.errors import CatalogError
from repro.storage.catalog import Catalog
from repro.storage.schema import Field, Schema
from repro.storage.table import Table
from repro.types import DataType


def make_table(name="t"):
    return Table.from_pydict(
        name, Schema([Field("c", DataType.INT64)]), {"c": [1, 2, 2]}
    )


class TestTables:
    def test_add_and_get(self):
        catalog = Catalog()
        table = make_table()
        catalog.add_table(table)
        assert catalog.table("t") is table
        assert catalog.table_names() == ["t"]

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.add_table(make_table())
        with pytest.raises(CatalogError):
            catalog.add_table(make_table())

    def test_unknown_raises(self):
        with pytest.raises(CatalogError):
            Catalog().table("nope")

    def test_drop(self):
        catalog = Catalog()
        catalog.add_table(make_table())
        catalog.drop_table("t")
        assert catalog.table_names() == []
        with pytest.raises(CatalogError):
            catalog.drop_table("t")


class TestIndexes:
    def make_catalog(self):
        catalog = Catalog()
        table = make_table()
        catalog.add_table(table)
        index = PatchIndex.create("pi", table, "c", "unique")
        catalog.add_index(index)
        return catalog, index

    def test_add_and_find(self):
        catalog, index = self.make_catalog()
        assert catalog.index("pi") is index
        assert catalog.has_index("pi")
        assert catalog.find_index("t", "c", "unique") is index
        assert catalog.find_index("t", "c", "sorted") is None
        assert catalog.indexes_on("t") == [index]
        assert catalog.indexes_on("t", "c") == [index]
        assert catalog.indexes_on("t", "other") == []

    def test_duplicate_index_rejected(self):
        catalog, index = self.make_catalog()
        with pytest.raises(CatalogError):
            catalog.add_index(index)

    def test_index_on_missing_table_rejected(self):
        catalog = Catalog()
        table = make_table()
        index = PatchIndex.create("pi", table, "c", "unique")
        with pytest.raises(CatalogError):
            catalog.add_index(index)

    def test_drop_index_detaches(self):
        catalog, index = self.make_catalog()
        table = catalog.table("t")
        catalog.drop_index("pi")
        assert not catalog.has_index("pi")
        # Mutations no longer touch the dropped index.
        table.insert_rows([[1]])
        assert index.patch_count == 2

    def test_drop_table_drops_its_indexes(self):
        catalog, index = self.make_catalog()
        catalog.drop_table("t")
        assert not catalog.has_index("pi")
