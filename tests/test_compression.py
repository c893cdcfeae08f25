"""Tests for the bit-packing kernels and block codecs (paper §VIII outlook)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compression import (
    decode_block_for,
    decode_block_pfor,
    decode_blocks_for,
    encode_block_for,
    encode_block_pfor,
    pack_bits,
    unpack_bits,
    unpack_bits_reference,
)
from repro.core.discovery import discover_nsc_patches
from repro.errors import StorageError
from repro.gen.synthetic import sorted_with_exceptions
from repro.storage.column import ColumnVector
from repro.storage.segment import write_segment
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
        # Payloads arrive as read-only views of bytes: the kernel works
        # on its own padded copy and hands back fresh memory.
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


def exceptions_of(column):
    """What the segment writer hands ``pfor``: NSC patches plus NULL slots."""
    nulls = np.flatnonzero(~column.validity_or_all_true())
    return np.union1d(discover_nsc_patches(column), nulls)


def pfor_roundtrip(column, exceptions=None):
    """Encode the whole column as one ``pfor`` block and decode it back;
    the codec sees physical values (NULL slots hold their fill value)."""
    if exceptions is None:
        exceptions = exceptions_of(column)
    payload = encode_block_pfor(column.values, exceptions)
    assert payload is not None
    np.testing.assert_array_equal(
        decode_block_pfor(payload, len(column)), column.values
    )
    return payload


class TestCompressSorted:
    """``encode_block_pfor`` / ``decode_block_pfor`` over a column as one block."""

    def test_roundtrip_simple(self):
        pfor_roundtrip(col([1, 3, 100, 4, 6]))  # 100 is the exception

    def test_roundtrip_with_nulls(self):
        column = col([1, None, 3, 4])
        assert exceptions_of(column).tolist() == [1]
        pfor_roundtrip(column)

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        assert encode_block_pfor(empty, empty) is None  # raw fallback

    def test_all_patches(self):
        values = np.array([5, 4, 3], dtype=np.int64)
        assert encode_block_pfor(values, np.arange(3)) is None
        # One kept value: representable, but 12 bytes an exception
        # cannot beat 8 bytes a value.
        assert encode_block_pfor(values, np.array([1, 2])) is None

    def test_explicit_patch_set(self):
        pfor_roundtrip(col([1, 9, 2, 3]), np.array([1], dtype=np.int64))

    def test_bad_patch_set_rejected(self):
        values = np.array([5, 1, 2, 3, 4, 6], dtype=np.int64)  # 5 must be a patch
        assert encode_block_pfor(values, np.array([], dtype=np.int64)) is None
        assert encode_block_pfor(values, np.array([0])) is not None

    def test_exception_positions_out_of_range_rejected(self):
        values = np.arange(16, dtype=np.int64)
        assert encode_block_pfor(values, np.array([16])) is None
        assert encode_block_pfor(values, np.array([-1])) is None

    def test_nulls_must_be_patches(self):
        # A NULL slot's fill value breaks the order of the kept values
        # unless the slot is among the exceptions.
        column = col([1, None, 3, 4, 5, 6])
        assert encode_block_pfor(column.values, np.array([], dtype=np.int64)) is None
        pfor_roundtrip(column, np.array([1], dtype=np.int64))

    def test_non_int_rejected(self, tmp_path):
        # The int codecs are never offered a FLOAT64 column, patches or not.
        column = ColumnVector.from_pylist(
            DataType.FLOAT64, [float(i) for i in range(64)]
        )
        info = write_segment(
            tmp_path / "f.seg", column, sync=False, patch_rowids=np.array([3])
        )
        assert info.encodings == {"raw": 1}

    @given(
        st.lists(st.integers(-1000, 1000), max_size=300),
        st.lists(
            st.tuples(
                st.integers(0, 299), st.one_of(st.none(), st.integers(-1000, 1000))
            ),
            max_size=12,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, base, dirt):
        # A sorted run with up to a dozen slots overwritten by arbitrary
        # values or NULLs: nearly sorted, as the codec expects.
        items = sorted(base)
        for position, value in dirt:
            if position < len(items):
                items[position] = value
        column = col(items)
        payload = encode_block_pfor(column.values, exceptions_of(column))
        if len(items) >= 64:
            assert payload is not None
        if payload is not None:  # else: the raw fallback
            np.testing.assert_array_equal(
                decode_block_pfor(payload, len(items)), column.values
            )

    def test_compresses_nearly_sorted_data_well(self):
        column = sorted_with_exceptions(20_000, 0.01, seed=5)
        assert len(pfor_roundtrip(column)) < 20_000 * 8 / 10

    def test_size_accounting(self):
        payload = pfor_roundtrip(col([1, 2, 3, 4]))
        # base 8 + width 1 + kept count 4 + exception count 4, then one
        # byte of 1-bit deltas and no exceptions.
        assert len(payload) == 17 + 1


class TestCompressFor:
    """``encode_block_for`` / ``decode_block_for`` over a column as one block."""

    @given(st.lists(st.integers(-(2**30), 2**30), max_size=150))
    @settings(max_examples=80)
    def test_roundtrip(self, items):
        values = np.array(items, dtype=np.int64)
        payload = encode_block_for(values)
        if len(items) >= 8:  # 32-bit zig-zag deltas: half of raw, plus 9
            assert payload is not None
        if payload is not None:  # else: the raw fallback
            np.testing.assert_array_equal(
                decode_block_for(payload, len(items)), values
            )

    def test_wider_than_patch_aware_on_dirty_data(self):
        column = sorted_with_exceptions(20_000, 0.01, seed=6)
        plain = encode_block_for(column.values)
        # Exceptions blow up the plain delta width; patch separation
        # keeps the main stream narrow (the §VIII hypothesis).
        assert len(pfor_roundtrip(column)) < len(plain)


class TestReport:
    def test_report_keys(self, tmp_path):
        # The engine's own report, SegmentWriteInfo: knowing the patches
        # turns the column's ``for`` blocks into smaller ``pfor`` ones.
        column = sorted_with_exceptions(5000, 0.02, seed=7)
        plain = write_segment(tmp_path / "plain.seg", column, sync=False)
        patched = write_segment(
            tmp_path / "patched.seg",
            column,
            sync=False,
            patch_rowids=discover_nsc_patches(column),
        )
        assert set(plain.encodings) == {"for"}
        assert set(patched.encodings) == {"pfor"}
        assert patched.encoded_ratio < plain.encoded_ratio < 1.0
