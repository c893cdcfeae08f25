"""Tests for the bit-packing kernels and block codecs (paper §VIII outlook)."""

import datetime
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core import compression
from repro.core.compression import (
    decode_block_bp,
    decode_block_for,
    decode_block_pfor,
    decode_blocks_bp,
    decode_blocks_for,
    encode_block_bp,
    encode_block_for,
    encode_block_pfor,
    for_block_width,
    pack_bits,
    pick_int_block_encoding,
    unpack_bits,
    unpack_bits_reference,
)
from repro.core.discovery import discover_nsc_patches
from repro.errors import StorageError
from repro.gen.synthetic import sorted_with_exceptions
from repro.storage.column import ColumnVector
from repro.storage.schema import Field, Schema
from repro.storage.segment import open_segment, write_segment
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


def frames(rng, width, count, blocks):
    """*blocks* frame payloads (header + fields packed at *width*) and
    their bases and fields, built without the encoders' size checks."""
    bases = rng.integers(-(2**62), 2**62, size=blocks)
    fields = rng.integers(0, 2**width, size=(blocks, count), dtype=np.uint64)
    fields = fields.astype(np.int64)
    payload = b"".join(
        struct.pack("<qB", int(base), width) + pack_bits(row, width).tobytes()
        for base, row in zip(bases, fields)
    )
    return payload, bases, fields


class TestInPlaceFrameDecode:
    """``decode_blocks_bp`` / ``decode_blocks_for`` write the caller's
    output and allocate nothing the size of it."""

    @pytest.mark.parametrize("width", range(1, 58))
    def test_frames_match_reference_at_every_width(self, width):
        rng = np.random.default_rng(width)
        for count in (1, 7, 9, 100, 4093):
            payload, bases, fields = frames(rng, width, count, 3)
            stride = len(payload) // 3
            reference = np.stack(
                [
                    unpack_bits_reference(
                        np.frombuffer(payload[row * stride + 9 :], np.uint8),
                        width,
                        count,
                    )
                    for row in range(3)
                ]
            )
            np.testing.assert_array_equal(reference, fields)
            out = np.empty((3, count), dtype=np.int64)
            assert decode_blocks_bp(payload, count, 3, out=out) is out
            np.testing.assert_array_equal(out, reference + bases[:, None])
            deltas = (reference >> 1) ^ -(reference & 1)
            expected = np.cumsum(deltas, axis=1) + bases[:, None]
            assert decode_blocks_for(payload, count, 3, out=out) is out
            np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("decode", [decode_blocks_bp, decode_blocks_for])
    def test_peak_stays_below_one_output(self, decode):
        # 25 blocks of 4096 values: an output of 800 KiB.  A pass that
        # allocated lane or value arrays the size of its output would
        # peak at twice that or more.
        blocks, count = 25, 4096
        payload, __, __ = frames(np.random.default_rng(5), 20, count, blocks)
        out = np.empty((blocks, count), dtype=np.int64)
        expected = decode(payload, count, blocks).copy()
        tracemalloc.start()
        try:
            result = decode(payload, count, blocks, out=out)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result is out
        np.testing.assert_array_equal(out, expected)
        assert peak < out.nbytes

    def test_out_must_match_the_run(self):
        payload, __, __ = frames(np.random.default_rng(1), 9, 64, 2)
        for out in (
            np.empty((2, 63), dtype=np.int64),
            np.empty((2, 64), dtype=np.uint64),
            np.empty((2, 128), dtype=np.int64)[:, ::2],
        ):
            with pytest.raises(ValueError):
                decode_blocks_bp(payload, 64, 2, out=out)


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


def bp_values(rng, width, count, base):
    """*count* values at *base* whose span needs exactly *width* bits
    (a single value: width 1)."""
    values = rng.integers(0, 2**width, size=count, dtype=np.uint64)
    if count > 1:
        values[0], values[-1] = 0, 2**width - 1
    return values.astype(np.int64) + np.int64(base)


def fits_raw(width, count):
    """Whether a frame payload of *count* values at *width* beats raw."""
    return 9 + (count * width + 7) // 8 < 8 * count


class TestCompressBp:
    """``encode_block_bp`` / ``decode_blocks_bp``: offsets from the block
    minimum, bit-packed, decoded with one add."""

    @given(
        st.integers(1, 57),
        st.sampled_from([1, 2, 7, 8, 9, 100, 4096]),
        st.integers(-(2**63), 2**63 - 2**57),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_roundtrip(self, width, count, base, seed):
        values = bp_values(np.random.default_rng(seed), width, count, base)
        payload = encode_block_bp(values)
        expected_width = width if count > 1 else 1
        assert (payload is not None) == fits_raw(expected_width, count)
        if payload is not None:
            assert for_block_width(payload) == expected_width
            np.testing.assert_array_equal(decode_block_bp(payload, count), values)

    @given(
        st.integers(1, 5),
        st.sampled_from([8, 64, 100, 4096]),
        st.integers(1, 57),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocks_decode_together_as_they_do_alone(
        self, blocks, count, width, seed
    ):
        rng = np.random.default_rng(seed)
        payloads = [
            encode_block_bp(
                bp_values(rng, width, count, int(rng.integers(-(2**62), 2**62)))
            )
            for _ in range(blocks)
        ]
        if payloads[0] is None:  # too wide to beat raw at this count
            assert not fits_raw(width, count)
            return
        out = np.empty((blocks, count), dtype=np.int64)
        together = decode_blocks_bp(b"".join(payloads), count, blocks, out=out)
        assert together is out
        for row, payload in zip(together, payloads):
            np.testing.assert_array_equal(row, decode_block_bp(payload, count))

    def test_blocks_of_different_width_do_not_decode_together(self):
        narrow = encode_block_bp(np.arange(64, dtype=np.int64))
        wide = encode_block_bp(np.arange(64, dtype=np.int64) * 1000)
        with pytest.raises(StorageError):
            decode_blocks_bp(narrow + wide[: len(narrow)], 64, 2)

    def test_int64_extremes_never_yield_bp(self):
        values = np.array([-(2**63), 2**63 - 1] * 32, dtype=np.int64)
        assert encode_block_bp(values) is None
        assert encode_block_bp(values[::-1].copy()) is None
        # Zig-zag deltas wrap around to +-1 here, and ``for`` round-trips.
        tag, payload = pick_int_block_encoding(values)
        assert tag == "for"
        np.testing.assert_array_equal(decode_block_for(payload, 64), values)

    def test_widths_past_the_window_kernel_are_refused(self):
        rng = np.random.default_rng(4)
        assert encode_block_bp(bp_values(rng, 57, 4096, -5)) is not None
        for width in (58, 60, 63):
            values = bp_values(rng, width, 4096, -(2**62))
            assert encode_block_bp(values) is None
            assert encode_block_for(values) is None
            assert pick_int_block_encoding(values) == ("raw", None)
        # Sorted but for one jump of 2^60: the kept deltas need 61 bits.
        jump = np.concatenate([np.arange(4096), np.arange(4096) + 2**60])
        assert encode_block_pfor(jump, np.array([5])) is None

    @given(
        st.lists(
            st.one_of(st.none(), st.integers(0, 2**20)),
            min_size=1,
            max_size=300,
        ),
        st.integers(-(2**40), 2**40),
        st.sampled_from([DataType.INT64, DataType.DATE]),
        st.sampled_from([1, 7, 64, 4096]),
    )
    @settings(max_examples=80, deadline=None)
    def test_segment_roundtrip(
        self, tmp_path_factory, items, shift, dtype, block_size
    ):
        # NULL slots hold the fill value 0 wherever the shifted valid
        # values lie; single-row and short last blocks come with the
        # block sizes.
        if dtype == DataType.DATE:
            shift %= 100_000
            epoch = datetime.date(1970, 1, 1)
            items = [
                None if item is None else epoch + datetime.timedelta(item + shift)
                for item in items
            ]
        else:
            items = [None if item is None else item + shift for item in items]
        column = ColumnVector.from_pylist(dtype, items)
        path = tmp_path_factory.mktemp("bp") / "col.seg"
        write_segment(path, column, block_size, sync=False)
        reader = open_segment(path)
        try:
            assert reader.read_all().to_pylist() == column.to_pylist()
            last = reader.block_count - 1
            assert reader.decode_run(last, last).to_pylist() == (
                column.slice(reader.stats[last].start, len(items)).to_pylist()
            )
        finally:
            reader.close()

    def test_null_fill_below_the_valid_minimum(self, tmp_path):
        # The sketch's minimum is 5000; the physical block's is the
        # NULL slots' fill value 0, and that is the frame's base.
        items = [5000 + (i * 37) % 1000 for i in range(200)]
        items[3] = items[150] = None
        column = ColumnVector.from_pylist(DataType.INT64, items)
        payload = encode_block_bp(column.values)
        assert struct.unpack_from("<q", payload)[0] == 0
        info = write_segment(tmp_path / "col.seg", column, sync=False)
        assert info.encodings == {"bp": 1}
        reader = open_segment(tmp_path / "col.seg")
        try:
            assert reader.stats[0].minimum == 5000
            assert reader.read_all().to_pylist() == items
        finally:
            reader.close()


class TestPicker:
    """``pick_int_block_encoding`` between the two frame codecs."""

    def test_a_width_tie_goes_to_bp(self):
        values = np.arange(64, dtype=np.int64)
        values[32:] += 200  # span 263 and largest delta 201: 9 bits each
        assert for_block_width(encode_block_for(values)) == 9
        assert for_block_width(encode_block_bp(values)) == 9
        assert pick_int_block_encoding(values)[0] == "bp"

    def test_a_ramp_stays_for(self):
        values = np.arange(4096, dtype=np.int64)
        tag, payload = pick_int_block_encoding(values)
        assert tag == "for" and payload == encode_block_for(values)

    def test_uniform_values_take_bp(self):
        values = np.random.default_rng(8).integers(-(2**19), 2**19, 4096)
        tag, payload = pick_int_block_encoding(values)
        assert tag == "bp" and payload == encode_block_bp(values)
        assert len(payload) < len(encode_block_for(values))

    def test_nsc_patch_rowids_still_give_pfor(self):
        column = sorted_with_exceptions(4096, 0.01, seed=9)
        tag, payload = pick_int_block_encoding(
            column.values, discover_nsc_patches(column)
        )
        assert tag == "pfor"
        assert len(payload) < len(encode_block_bp(column.values))


def test_wide_spans_never_reach_the_reference_kernel(tmp_path, monkeypatch):
    # Blocks spanning 2^60 checkpoint to raw: no writer packs a width
    # only unpack_bits_reference can read.
    values = np.random.default_rng(10).integers(0, 2**60, 10_000).tolist()
    schema = Schema([Field("c", DataType.INT64)])
    db = repro.connect(path=tmp_path)
    db.create_table_from_pydict("t", schema, {"c": values})
    detail = db.checkpoint()["table_details"]["t"]["columns"]["c"]
    assert set(detail["encodings"]) == {"raw"}
    db.close()

    def refuse(*args, **kwargs):
        raise AssertionError("a scan decoded through the reference kernel")

    monkeypatch.setattr(compression, "unpack_bits_reference", refuse)
    reopened = repro.connect(path=tmp_path)
    try:
        assert reopened.sql("SELECT c FROM t").to_pydict()["c"] == values
    finally:
        reopened.close()


class TestReport:
    def test_report_keys(self, tmp_path):
        # The engine's own report, SegmentWriteInfo: knowing the patches
        # turns the column's ``bp`` blocks into smaller ``pfor`` ones.
        column = sorted_with_exceptions(5000, 0.02, seed=7)
        plain = write_segment(tmp_path / "plain.seg", column, sync=False)
        patched = write_segment(
            tmp_path / "patched.seg",
            column,
            sync=False,
            patch_rowids=discover_nsc_patches(column),
        )
        assert set(plain.encodings) == {"bp"}
        assert set(patched.encodings) == {"pfor"}
        assert patched.encoded_ratio < plain.encoded_ratio < 1.0
