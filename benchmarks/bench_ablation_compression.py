"""Ablation: patch-aware compression ratios (paper §VIII outlook).

The paper hypothesizes that treating the discovered patches separately
increases compression ratios — the PFOR idea applied to the
PatchIndex's knowledge.  This sweep encodes the nearly sorted synthetic
column three ways across exception rates, with the block codecs the
engine writes at checkpoint (the whole column as one block):

- raw (8 bytes per value),
- ``for``: plain delta/FOR with zig-zag (one width must cover the
  exception jumps),
- ``pfor``: patch-aware delta/FOR (exceptions stored verbatim on the
  side).

A codec that cannot beat raw returns ``None`` and the block stays raw,
so no ratio falls below 1.
"""

from __future__ import annotations

import numpy as np

from repro.bench.reporting import format_table
from repro.core.compression import (
    decode_block_for,
    decode_block_pfor,
    encode_block_for,
    encode_block_pfor,
)
from repro.core.discovery import discover_nsc_patches
from repro.gen.synthetic import sorted_with_exceptions

from conftest import CREATE_ROWS, SWEEP_RATES


def encoded_bytes(payload: bytes | None, decode, values: np.ndarray) -> int:
    """Size of *payload* (raw when the codec declined), round trip checked."""
    if payload is None:
        return values.nbytes
    np.testing.assert_array_equal(decode(payload, len(values)), values)
    return len(payload)


def test_compression_ratio_sweep(benchmark, report):
    rows = []
    raw = CREATE_ROWS * 8
    for rate in SWEEP_RATES:
        column = sorted_with_exceptions(CREATE_ROWS, rate, seed=61)
        patches = discover_nsc_patches(column)
        plain = encoded_bytes(
            encode_block_for(column.values), decode_block_for, column.values
        )
        patched = encoded_bytes(
            encode_block_pfor(column.values, patches),
            decode_block_pfor,
            column.values,
        )
        rows.append([rate, raw / plain, raw / patched, len(patches)])
    report(
        format_table(
            f"Ablation §VIII: compression ratio over raw 8B/value "
            f"({CREATE_ROWS} rows)",
            ["rate", "plain FOR [x]", "patch-aware [x]", "patches"],
            rows,
        )
    )
    # Patch separation must win clearly at low rates (2x+ below 1 %)
    # and still beat plain FOR up to 5 %.
    for row in rows:
        if row[0] <= 0.01:
            assert row[2] > 2 * row[1], rows
        elif row[0] <= 0.05:
            assert row[2] > row[1], rows
    column = sorted_with_exceptions(CREATE_ROWS, 0.01, seed=61)
    patches = discover_nsc_patches(column)
    benchmark(lambda: len(encode_block_pfor(column.values, patches)))


def test_compression_speed(benchmark):
    column = sorted_with_exceptions(CREATE_ROWS, 0.01, seed=62)
    benchmark(
        lambda: encode_block_pfor(column.values, discover_nsc_patches(column))
    )
