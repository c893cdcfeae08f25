"""Tests for patch-aware compression (paper §VIII outlook)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compression import (
    compress_for,
    compress_sorted,
    compression_report,
    decode_block_for,
    decode_blocks_for,
    encode_block_for,
    pack_bits,
    unpack_bits,
    unpack_bits_reference,
)
from repro.errors import StorageError
from repro.gen.synthetic import sorted_with_exceptions
from repro.storage.column import ColumnVector
from repro.types import DataType


def col(items):
    return ColumnVector.from_pylist(DataType.INT64, items)


class TestBitPacking:
    @given(
        st.lists(st.integers(0, 2**40), max_size=100),
        st.integers(41, 63),
    )
    @settings(max_examples=60)
    def test_roundtrip(self, values, width):
        array = np.array(values, dtype=np.int64)
        packed = pack_bits(array, width)
        assert unpack_bits(packed, width, len(values)).tolist() == values

    def test_minimal_width(self):
        array = np.array([0, 1, 7], dtype=np.int64)
        packed = pack_bits(array, 3)
        assert unpack_bits(packed, 3, 3).tolist() == [0, 1, 7]
        assert len(packed) == 2  # 9 bits -> 2 bytes

    def test_bad_width(self):
        with pytest.raises(StorageError):
            pack_bits(np.array([1], dtype=np.int64), 0)
        with pytest.raises(StorageError):
            pack_bits(np.array([1], dtype=np.int64), 64)


#: Counts around the group-of-8 and block-size edges of the kernel.
EDGE_COUNTS = (0, 1, 7, 8, 9, 4095, 4096, 4097)


def pack_bits_bigint(values, width):
    """The format, spelled with Python integers: value i at bit i * width."""
    packed = 0
    for position, value in enumerate(values):
        packed |= int(value) << (position * width)
    return packed.to_bytes((len(values) * width + 7) // 8, "little")


class TestUnpackKernel:
    """The word-window kernel against the bit-matrix body it replaced."""

    @given(
        st.integers(1, 63),
        st.sampled_from(EDGE_COUNTS),
        st.integers(0, 2**32 - 1),
        st.integers(0, 9),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_on_random_payloads(
        self, width, count, seed, slack
    ):
        # *slack* trailing bytes stand for whatever follows the packed
        # run in a block payload; they must not leak into the values.
        needed = (count * width + 7) // 8
        payload = np.random.default_rng(seed).integers(
            0, 256, size=needed + slack, dtype=np.uint8
        )
        got = unpack_bits(payload, width, count)
        assert got.dtype == np.int64 and got.shape == (count,)
        np.testing.assert_array_equal(
            got, unpack_bits_reference(payload, width, count)
        )

    @given(
        st.integers(1, 63),
        st.sampled_from(EDGE_COUNTS),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_unpack_inverts_pack_and_pack_is_unchanged(
        self, width, count, seed
    ):
        values = np.random.default_rng(seed).integers(
            0, 2**width, size=count, dtype=np.uint64
        ).astype(np.int64)
        packed = pack_bits(values, width)
        np.testing.assert_array_equal(unpack_bits(packed, width, count), values)
        if count <= 9:  # the big-int spelling is quadratic in the count
            assert packed.tobytes() == pack_bits_bigint(values, width)

    def test_pack_bits_bytes_are_pinned(self):
        values = np.arange(4096, dtype=np.int64) * 257 % (1 << 20)
        assert pack_bits(values, 20).tobytes() == pack_bits_bigint(values, 20)

    @given(
        st.integers(1, 63),
        st.sampled_from(EDGE_COUNTS[1:]),
        st.integers(1, 16),
    )
    @settings(max_examples=80, deadline=None)
    def test_short_buffer_is_a_typed_error(self, width, count, missing):
        needed = (count * width + 7) // 8
        short = np.full(max(0, needed - missing), 0xFF, dtype=np.uint8)
        for unpack in (unpack_bits, unpack_bits_reference):
            with pytest.raises(StorageError):
                unpack(short, width, count)

    @pytest.mark.parametrize("width", [0, -1, 64, 200])
    def test_width_out_of_range_is_a_typed_error(self, width):
        for unpack in (unpack_bits, unpack_bits_reference):
            with pytest.raises(StorageError):
                unpack(np.zeros(4096, dtype=np.uint8), width, 8)

    def test_result_owns_its_memory(self):
        # Payloads arrive as read-only views of bytes or of an mmap: the
        # kernel works on its own padded copy and hands back fresh memory.
        values = np.arange(8, dtype=np.int64)
        payload = np.frombuffer(pack_bits(values, 3).tobytes(), dtype=np.uint8)
        out = unpack_bits(payload, 3, 8)
        np.testing.assert_array_equal(out, values)
        assert out.flags.writeable
        assert not np.shares_memory(out, payload)

    def test_peak_memory_stays_near_the_output(self):
        # 4096 x 20-bit values: the output is 32 KiB.  The bit-matrix
        # body peaked at ~40x that; a regression to per-bit decode fails
        # here without any timing assertion.
        values = np.arange(4096, dtype=np.int64) * 255 % (1 << 20)
        packed = pack_bits(values, 20)
        unpack_bits(packed, 20, 4096)  # warm any one-time allocations
        tracemalloc.start()
        try:
            out = unpack_bits(packed, 20, 4096)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(out, values)
        assert peak < 6 * 4096 * 8

    @given(
        st.integers(1, 5),
        st.sampled_from([8, 64, 100, 4096]),
        st.integers(1, 28),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocks_decode_together_as_they_do_alone(
        self, blocks, count, bits, seed
    ):
        rng = np.random.default_rng(seed)
        payloads = []
        while len(payloads) < blocks:
            steps = rng.integers(-(2**bits), 2**bits, size=count)
            steps[1] = 2**bits - 1  # pins the width, so lengths agree
            payload = encode_block_for(np.cumsum(steps) + int(rng.integers(-9, 9)))
            if payload is not None:
                payloads.append(payload)
        together = decode_blocks_for(b"".join(payloads), count, blocks)
        assert together.shape == (blocks, count)
        for row, payload in zip(together, payloads):
            np.testing.assert_array_equal(row, decode_block_for(payload, count))

    def test_blocks_of_different_width_do_not_decode_together(self):
        narrow = encode_block_for(np.arange(64, dtype=np.int64))
        wide = encode_block_for(np.arange(64, dtype=np.int64) * 1000)
        joined = narrow + wide[: len(narrow)]
        with pytest.raises(StorageError):
            decode_blocks_for(joined, 64, 2)


class TestCompressSorted:
    def test_roundtrip_simple(self):
        column = col([1, 3, 100, 4, 6])  # 100 is the exception
        compressed = compress_sorted(column)
        assert compressed.decompress().to_pylist() == column.to_pylist()

    def test_roundtrip_with_nulls(self):
        column = col([1, None, 3, 4])
        compressed = compress_sorted(column)
        assert compressed.decompress().to_pylist() == [1, None, 3, 4]

    def test_empty(self):
        compressed = compress_sorted(col([]))
        assert compressed.decompress().to_pylist() == []

    def test_all_patches(self):
        column = col([5, 4, 3])
        compressed = compress_sorted(column, np.array([1, 2], dtype=np.int64))
        assert compressed.decompress().to_pylist() == [5, 4, 3]

    def test_explicit_patch_set(self):
        column = col([1, 9, 2, 3])
        compressed = compress_sorted(column, np.array([1], dtype=np.int64))
        assert compressed.decompress().to_pylist() == [1, 9, 2, 3]

    def test_bad_patch_set_rejected(self):
        column = col([5, 1, 2])  # 5 must be a patch
        with pytest.raises(StorageError):
            compress_sorted(column, np.array([], dtype=np.int64))

    def test_nulls_must_be_patches(self):
        column = col([1, None, 3])
        with pytest.raises(StorageError):
            compress_sorted(column, np.array([], dtype=np.int64))

    def test_non_int_rejected(self):
        column = ColumnVector.from_pylist(DataType.FLOAT64, [1.0])
        with pytest.raises(StorageError):
            compress_sorted(column)

    @given(
        st.integers(0, 300).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.one_of(st.none(), st.integers(-1000, 1000)),
                    min_size=n,
                    max_size=n,
                ),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, case):
        __, items = case
        column = col(items)
        compressed = compress_sorted(column)
        assert compressed.decompress().to_pylist() == items

    def test_compresses_nearly_sorted_data_well(self):
        column = sorted_with_exceptions(20_000, 0.01, seed=5)
        compressed = compress_sorted(column)
        raw = 20_000 * 8
        assert compressed.size_bytes() < raw / 10

    def test_size_accounting(self):
        column = col([1, 2, 3, 4])
        compressed = compress_sorted(column)
        # base 8 + width byte + 1 byte of 1-bit deltas + no exceptions.
        assert compressed.size_bytes() == 8 + 1 + 1


class TestCompressFor:
    @given(st.lists(st.integers(-(2**30), 2**30), max_size=150))
    @settings(max_examples=80)
    def test_roundtrip(self, items):
        column = col(items)
        compressed = compress_for(column)
        assert compressed.decompress().to_pylist() == items

    def test_rejects_nulls(self):
        with pytest.raises(StorageError):
            compress_for(col([1, None]))

    def test_wider_than_patch_aware_on_dirty_data(self):
        column = sorted_with_exceptions(20_000, 0.01, seed=6)
        plain = compress_for(column)
        patched = compress_sorted(column)
        # Exceptions blow up the plain delta width; patch separation
        # keeps the main stream narrow (the §VIII hypothesis).
        assert patched.size_bytes() < plain.size_bytes()


class TestReport:
    def test_report_keys(self):
        column = sorted_with_exceptions(5000, 0.02, seed=7)
        report = compression_report(column)
        assert report["patch_aware_ratio"] > report["for_ratio"] > 1.0
