"""Columnar storage substrate: schemas, columns, partitions, tables, WAL.

This subpackage is the stand-in for the storage layer of the analytical
engine the paper integrated PatchIndexes into (Actian Vector).  It
provides partitioned, block-oriented columnar tables with NULL support
and per-block min/max sketches ("small materialized aggregates") used
for scan-range pruning.
"""

from repro.storage.schema import Field, Schema
from repro.storage.column import ColumnVector
from repro.storage.blocks import BlockStats, DEFAULT_BLOCK_SIZE
from repro.storage.partition import Partition
from repro.storage.table import Table
from repro.storage.catalog import Catalog
from repro.storage.wal import WriteAheadLog, WalRecord
from repro.storage.database import Database
from repro.storage.segment import read_segment, write_segment
from repro.storage.manifest import Manifest
from repro.storage.engine import DurableEngine, MemoryEngine, StorageEngine

__all__ = [
    "Field",
    "Schema",
    "ColumnVector",
    "BlockStats",
    "DEFAULT_BLOCK_SIZE",
    "Partition",
    "Table",
    "Catalog",
    "WriteAheadLog",
    "WalRecord",
    "Database",
    "read_segment",
    "write_segment",
    "Manifest",
    "StorageEngine",
    "MemoryEngine",
    "DurableEngine",
]
