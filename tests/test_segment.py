"""Unit tests for the columnar segment file format (RSEG2)."""

import datetime
import json
import struct

import numpy as np
import pytest

from repro.core.compression import (
    encode_block_bp,
    encode_block_codes,
    encode_block_for,
    encode_block_pfor,
    encode_block_rle,
)
from repro.errors import StorageError
from repro.storage.cache import BlockCache, SegmentColumnSource
from repro.storage.column import ColumnVector
from repro.storage import segment
from repro.storage.segment import (
    open_segment,
    read_segment,
    write_segment,
)
from repro.types import DataType


def roundtrip(tmp_path, dtype, items, *, block_size=4096):
    column = ColumnVector.from_pylist(dtype, items)
    path = tmp_path / "col.seg"
    info = write_segment(path, column, block_size, sync=False)
    assert info.bytes_written == path.stat().st_size
    assert info.rows == len(items)
    loaded, stats = read_segment(path)
    assert loaded.dtype == dtype
    assert loaded.to_pylist() == column.to_pylist()
    return loaded, stats


class TestRoundtrip:
    def test_int64(self, tmp_path):
        roundtrip(tmp_path, DataType.INT64, [1, -5, 2**40, 0])

    def test_float64(self, tmp_path):
        roundtrip(tmp_path, DataType.FLOAT64, [1.5, -0.25, 1e300])

    def test_bool(self, tmp_path):
        roundtrip(tmp_path, DataType.BOOL, [True, False, True])

    def test_date(self, tmp_path):
        roundtrip(
            tmp_path,
            DataType.DATE,
            [datetime.date(2020, 1, 1), datetime.date(1969, 12, 31)],
        )

    def test_strings_including_unicode(self, tmp_path):
        roundtrip(
            tmp_path,
            DataType.STRING,
            ["plain", "", "naïve — ünïcødé", "日本語", "a" * 1000],
        )

    def test_nulls(self, tmp_path):
        loaded, __ = roundtrip(
            tmp_path, DataType.INT64, [1, None, 3, None, 5]
        )
        assert loaded.null_count() == 2

    def test_string_nulls_distinct_from_empty(self, tmp_path):
        loaded, __ = roundtrip(tmp_path, DataType.STRING, ["", None, "x"])
        assert loaded.to_pylist() == ["", None, "x"]

    def test_empty_column(self, tmp_path):
        loaded, stats = roundtrip(tmp_path, DataType.INT64, [])
        assert len(loaded) == 0
        assert stats == []

    def test_all_null_column(self, tmp_path):
        loaded, stats = roundtrip(tmp_path, DataType.FLOAT64, [None, None])
        assert loaded.null_count() == 2
        assert stats[0].minimum is None

    def test_extreme_int64_falls_back_to_raw(self, tmp_path):
        # The full int64 span overflows zig-zag deltas; the picker must
        # detect that and keep the block raw rather than corrupt it.
        roundtrip(tmp_path, DataType.INT64, [-(2**63), 2**63 - 1, 0, -1])


class TestEncodingPicker:
    def write(self, tmp_path, dtype, items, *, block_size=4096, **kwargs):
        column = ColumnVector.from_pylist(dtype, items)
        path = tmp_path / "col.seg"
        info = write_segment(path, column, block_size, sync=False, **kwargs)
        loaded, __ = read_segment(path)
        assert loaded.to_pylist() == column.to_pylist()
        return info, path

    def test_sorted_ints_use_for(self, tmp_path):
        info, __ = self.write(tmp_path, DataType.INT64, list(range(4096)))
        assert info.encodings == {"for": 1}
        assert info.payload_bytes < info.raw_payload_bytes
        assert info.encoded_ratio < 0.25

    def test_constant_block_uses_rle(self, tmp_path):
        info, __ = self.write(tmp_path, DataType.INT64, [7] * 1000)
        assert info.encodings == {"rle": 1}
        assert info.payload_bytes < 100

    def test_patch_rowids_enable_pfor(self, tmp_path):
        # Nearly sorted: a handful of out-of-order outliers whose rowids
        # come from the PatchIndex; pfor stores them verbatim and packs
        # the kept (sorted) values at the clean-column rate.
        items = [i * 10 for i in range(4096)]
        patch_rowids = np.array([100, 2000, 3999], dtype=np.int64)
        for rowid in patch_rowids:
            items[rowid] = 10**15 + int(rowid)
        info, __ = self.write(
            tmp_path,
            DataType.INT64,
            items,
            patch_rowids=patch_rowids,
        )
        assert info.encodings.get("pfor", 0) >= 1
        assert info.encoded_ratio < 0.25

    def test_low_cardinality_strings_use_dict(self, tmp_path):
        items = ["alpha", "beta", "gamma"] * 500
        info, path = self.write(tmp_path, DataType.STRING, items)
        assert info.encodings == {"dict": 1}
        reader = open_segment(path)
        assert reader.encodings == ["dict"]
        reader.close()

    def test_high_cardinality_strings_stay_raw(self, tmp_path):
        items = [f"unique-value-{i:08d}" for i in range(500)]
        info, __ = self.write(tmp_path, DataType.STRING, items)
        assert info.encodings == {"raw": 1}

    def test_raw_mode_forces_raw(self, tmp_path):
        info, __ = self.write(
            tmp_path, DataType.INT64, list(range(1000)), encoding="raw"
        )
        assert info.encodings == {"raw": 1}
        assert info.encoded_ratio == 1.0

    def test_unknown_encoding_mode_rejected(self, tmp_path):
        column = ColumnVector.from_pylist(DataType.INT64, [1])
        with pytest.raises(StorageError):
            write_segment(
                tmp_path / "col.seg", column, sync=False, encoding="zstd"
            )

    def test_floats_stay_raw(self, tmp_path):
        info, __ = self.write(
            tmp_path, DataType.FLOAT64, [float(i) for i in range(100)]
        )
        assert info.encodings == {"raw": 1}


class TestBlockReader:
    def test_decode_block_matches_slice(self, tmp_path):
        items = list(range(100)) + [None, 5, 5, 5] + list(range(28))
        column = ColumnVector.from_pylist(DataType.INT64, items)
        path = tmp_path / "col.seg"
        write_segment(path, column, block_size=16, sync=False)
        reader = open_segment(path)
        assert reader.version == 2
        for index, block in enumerate(reader.stats):
            decoded = reader.decode_block(index)
            expected = column.slice(block.start, block.stop)
            assert decoded.to_pylist() == expected.to_pylist()
        reader.close()

    def test_block_payload_bytes_sum_to_payload(self, tmp_path):
        column = ColumnVector.from_pylist(DataType.INT64, list(range(64)))
        path = tmp_path / "col.seg"
        info = write_segment(path, column, block_size=16, sync=False)
        reader = open_segment(path)
        total = sum(
            reader.block_payload_bytes(i) for i in range(reader.block_count)
        )
        assert total == info.payload_bytes
        reader.close()


def scan_source(reader, cached):
    """*reader* as a scan sees it: behind a block cache, or bare."""
    return SegmentColumnSource(
        reader,
        BlockCache(1 << 20) if cached else None,
        table="t",
        column="c",
        segment=reader.path.name,
        generation=1,
    )


def mixed_column(dtype):
    """Nine 64-row blocks (the last one partial) that between them use
    every block encoding their dtype can take, with NULLs mixed in."""
    rng = np.random.default_rng(11)
    if dtype == DataType.STRING:
        items = [f"s{rng.integers(0, 9)}" for _ in range(540)]
        items[5] = items[70] = None
        return ColumnVector.from_pylist(dtype, items), None
    steps = np.concatenate(
        [
            rng.integers(-3, 4, 128),  # for, narrow
            rng.integers(-900, 900, 128),  # for, wider: two 2-D groups
            np.zeros(64, dtype=np.int64),  # rle
            rng.integers(-(2**62), 2**62, 64),  # raw
            rng.integers(0, 3, 156),  # sorted but for two patches: pfor
        ]
    )
    values = np.concatenate([np.cumsum(steps[:320]), steps[320:384]])
    values = np.concatenate([values, np.cumsum(steps[384:]) + 10_000])
    patches = np.array([400, 470])
    values[patches] = [-(2**40), 2**41]
    items = values.tolist()
    items[3] = items[200] = items[539] = None
    return ColumnVector.from_pylist(dtype, items), patches


class TestDecodeRun:
    """``decode_run`` is ``decode_block`` over a range, value for value."""

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("dtype", [DataType.INT64, DataType.STRING])
    def test_every_run_matches_its_blocks(self, tmp_path, dtype, cached):
        column, patches = mixed_column(dtype)
        path = tmp_path / "col.seg"
        info = write_segment(
            path, column, block_size=64, sync=False, patch_rowids=patches
        )
        if dtype == DataType.INT64:
            assert set(info.encodings) == {"for", "bp", "rle", "raw", "pfor"}
        else:
            assert set(info.encodings) == {"dict"}
        reader = open_segment(path)
        # The same rows as a scan pulls them: with a cache, every slice
        # past the first mixes resident blocks and runs of missed ones.
        source = scan_source(reader, cached)
        blocks = [
            reader.decode_block(index) for index in range(reader.block_count)
        ]
        assert len(blocks[-1]) == 540 - 8 * 64  # the partial last block
        for first in range(reader.block_count):
            for last in range(first, reader.block_count):
                run = reader.decode_run(first, last)
                expected = ColumnVector.concat(blocks[first : last + 1])
                assert run.to_pylist() == expected.to_pylist()
                start, stop = reader.stats[first].start, reader.stats[last].stop
                assert run.to_pylist() == column.slice(start, stop).to_pylist()
                assert source.slice(start, stop).to_pylist() == run.to_pylist()
        reader.close()

    def test_run_of_raw_strings_and_floats(self, tmp_path):
        for dtype, items in (
            (DataType.STRING, [f"unique-{i}" for i in range(200)] + [None]),
            (DataType.FLOAT64, [i / 7 for i in range(200)] + [None]),
            (DataType.BOOL, [i % 3 == 0 for i in range(200)] + [None]),
        ):
            column = ColumnVector.from_pylist(dtype, items)
            path = tmp_path / f"{dtype.name}.seg"
            write_segment(path, column, block_size=32, sync=False)
            reader = open_segment(path)
            assert set(reader.encodings) == {"raw"}
            assert reader.decode_run(1, 5).to_pylist() == items[32:192]
            assert reader.read_all().to_pylist() == items
            reader.close()

    def test_full_size_blocks_group_across_widths(self, tmp_path):
        # Real block size: 5 full for-blocks at one width, 3 at another,
        # then a partial one; read_all decodes them as three passes.
        rng = np.random.default_rng(5)
        steps = np.concatenate(
            [rng.integers(-500, 500, 5 * 4096), rng.integers(-9, 9, 3 * 4096 + 77)]
        )
        column = ColumnVector(DataType.INT64, np.cumsum(steps))
        path = tmp_path / "col.seg"
        info = write_segment(path, column, sync=False)
        assert info.encodings == {"for": 9}
        loaded, __ = read_segment(path)
        np.testing.assert_array_equal(loaded.values, column.values)


    def test_full_size_bp_blocks_group_across_widths(self, tmp_path, monkeypatch):
        # The bp twin: 5 full blocks of 20-bit offsets, 3 of 10-bit ones,
        # then a partial one; read_all decodes them as three passes.
        rng = np.random.default_rng(6)
        values = np.concatenate(
            [
                rng.integers(-(2**19), 2**19, 5 * 4096),
                rng.integers(0, 2**10, 3 * 4096 + 77) + 2**40,
            ]
        )
        column = ColumnVector(DataType.INT64, values)
        path = tmp_path / "col.seg"
        info = write_segment(path, column, sync=False)
        assert info.encodings == {"bp": 9}
        passes = spy_on_passes(monkeypatch)
        loaded, __ = read_segment(path)
        np.testing.assert_array_equal(loaded.values, values)
        assert passes == [("bp", 5), ("bp", 3), ("bp", 1)]

    def test_mixed_frame_neighbours_never_share_a_pass(self, tmp_path, monkeypatch):
        # 64-row blocks: cap + 2 bp, 2 for, 1 bp, 1 pfor, 1 raw, 2 bp.  A
        # pass takes at most _FOR_GROUP_BLOCKS blocks of one tag; every
        # run reads back.
        cap = segment._FOR_GROUP_BLOCKS
        rng = np.random.default_rng(7)

        def uniform():
            return rng.integers(0, 2**12, 64)

        blocks = [uniform() for _ in range(cap + 2)]
        blocks += [np.arange(64) * 3, np.arange(64) * 3 + 500, uniform()]
        sorted_block = np.arange(64) * 2
        sorted_block[[9, 40]] = [10**9, -(10**9)]
        blocks += [sorted_block, rng.integers(-(2**62), 2**62, 64)]
        blocks += [uniform(), uniform()]
        column = ColumnVector(DataType.INT64, np.concatenate(blocks))
        path = tmp_path / "col.seg"
        pfor_block = cap + 5
        write_segment(
            path,
            column,
            block_size=64,
            sync=False,
            patch_rowids=np.array([pfor_block * 64 + 9, pfor_block * 64 + 40]),
        )
        reader = open_segment(path)
        try:
            assert reader.encodings == (
                ["bp"] * (cap + 2) + ["for"] * 2 + ["bp", "pfor", "raw", "bp", "bp"]
            )
            passes = spy_on_passes(monkeypatch)
            np.testing.assert_array_equal(reader.read_all().values, column.values)
            assert passes == [
                ("bp", cap), ("bp", 2), ("for", 2), ("bp", 1), ("bp", 2)
            ]
            for first in range(reader.block_count):
                for last in range(first, reader.block_count):
                    start, stop = reader.stats[first].start, reader.stats[last].stop
                    np.testing.assert_array_equal(
                        reader.decode_run(first, last).values,
                        column.values[start:stop],
                    )
        finally:
            reader.close()


def spy_on_passes(monkeypatch):
    """Record ``(tag, blocks)`` for every 2-D frame decode pass."""
    passes = []
    for tag, decode in list(segment._GROUP_DECODERS.items()):

        def spy(data, count, blocks=1, out=None, tag=tag, decode=decode):
            passes.append((tag, blocks))
            return decode(data, count, blocks, out=out)

        monkeypatch.setitem(segment._GROUP_DECODERS, tag, spy)
    return passes


def handmade_segment(path, dtype, tag, payload, count, dictionary=()):
    """An RSEG2 file around one hand-built block payload."""
    dict_payload = b""
    if dictionary:
        pieces = [text.encode("utf-8") for text in dictionary]
        offsets = np.zeros(len(pieces) + 1, dtype=np.int64)
        np.cumsum([len(piece) for piece in pieces], out=offsets[1:])
        dict_payload = offsets.tobytes() + b"".join(pieces)
    header = {
        "dtype": dtype.value,
        "rows": count,
        "block_size": 4096,
        "validity_len": 0,
        "payload_len": len(dict_payload) + len(payload),
        "dict": (
            {"count": len(dictionary), "bytes": len(dict_payload)}
            if dictionary
            else None
        ),
        "blocks": [
            [0, count, None, None, 0, tag, len(dict_payload), len(payload)]
        ],
    }
    path.write_bytes(
        b"RSEG2\n"
        + json.dumps(header).encode("utf-8")
        + b"\n"
        + dict_payload
        + payload
    )


def set_byte(payload, position, value):
    return payload[:position] + bytes([value]) + payload[position + 1 :]


def corrupt_payloads():
    """(case id, dtype, tag, payload, claimed row count, dictionary)."""
    count = 100
    values = np.cumsum(np.arange(count, dtype=np.int64) % 7)
    cases = []

    def add(name, dtype, tag, payload, rows=count, dictionary=()):
        cases.append(
            pytest.param(dtype, tag, payload, rows, dictionary, id=name)
        )

    good = encode_block_for(values)
    for cut in (0, 4, 8, 9, 9 + (len(good) - 9) // 2, len(good) - 1):
        add(f"for-cut-{cut}", DataType.INT64, "for", good[:cut])
    for width in (0, 64, 200):
        add(f"for-width-{width}", DataType.INT64, "for", set_byte(good, 8, width))
    add("for-more-rows-than-packed", DataType.INT64, "for", good, 4 * count)

    good = encode_block_bp(values)
    for cut in (0, 4, 8, 9, 9 + (len(good) - 9) // 2, len(good) - 1):
        add(f"bp-cut-{cut}", DataType.INT64, "bp", good[:cut])
    for width in (0, 64, 200):
        add(f"bp-width-{width}", DataType.INT64, "bp", set_byte(good, 8, width))
    add("bp-more-rows-than-packed", DataType.INT64, "bp", good, 4 * count)

    dirty = values.copy()
    exceptions = np.array([10, 50], dtype=np.int64)
    dirty[exceptions] = [-5, 10**12]
    good = encode_block_pfor(dirty, exceptions)
    packed_end = 17 + (98 * good[8] + 7) // 8
    for cut in (0, 10, 17, packed_end - 1, packed_end, packed_end + 8, len(good) - 1):
        add(f"pfor-cut-{cut}", DataType.INT64, "pfor", good[:cut])
    for width in (0, 64, 200):
        add(f"pfor-width-{width}", DataType.INT64, "pfor", set_byte(good, 8, width))
    add(
        "pfor-kept-count-lies",
        DataType.INT64,
        "pfor",
        good[:9] + struct.pack("<I", 99) + good[13:],
    )
    add(
        "pfor-exception-count-lies",
        DataType.INT64,
        "pfor",
        good[:9] + struct.pack("<II", 90, 10) + good[17:],
    )
    add("pfor-block-rows-lie", DataType.INT64, "pfor", good, count + 1)
    add(
        "pfor-position-out-of-range",
        DataType.INT64,
        "pfor",
        good[: packed_end + 4] + struct.pack("<I", count + 5) + good[packed_end + 8 :],
    )
    add(
        "pfor-positions-repeat",
        DataType.INT64,
        "pfor",
        good[: packed_end + 4] + struct.pack("<I", 10) + good[packed_end + 8 :],
    )

    runs = np.repeat(np.array([7, 8, 9], dtype=np.int64), [40, 30, 30])
    good = encode_block_rle(runs)
    for cut in (0, 2, 4, 4 + 12, 4 + 24, len(good) - 1):
        add(f"rle-cut-{cut}", DataType.INT64, "rle", good[:cut])
    add("rle-run-count-lies", DataType.INT64, "rle", struct.pack("<I", 2**31) + good[4:])
    add(
        "rle-lengths-claim-terabytes",
        DataType.INT64,
        "rle",
        good[:-4] + struct.pack("<I", 2**32 - 1),
    )
    add("rle-block-rows-lie", DataType.INT64, "rle", good, count - 1)

    words = ("a", "b", "c")
    codes = np.arange(count, dtype=np.int64) % 3
    good = encode_block_codes(codes, 2)
    for cut in (0, 1, len(good) // 2, len(good) - 1):
        add(f"dict-cut-{cut}", DataType.STRING, "dict", good[:cut], dictionary=words)
    for width in (64, 200):
        add(
            f"dict-width-{width}",
            DataType.STRING,
            "dict",
            set_byte(good, 0, width),
            dictionary=words,
        )
    add(
        "dict-code-out-of-range",
        DataType.STRING,
        "dict",
        encode_block_codes(np.full(count, 3, dtype=np.int64), 2),
        dictionary=words,
    )
    add("dict-block-rows-lie", DataType.STRING, "dict", good, 4 * count, words)
    add("dict-without-dictionary", DataType.STRING, "dict", good)
    add("int-codec-on-a-float-column", DataType.FLOAT64, "for", encode_block_for(values))
    add("bp-on-a-float-column", DataType.FLOAT64, "bp", encode_block_bp(values))
    add("raw-cut-short", DataType.INT64, "raw", values.tobytes()[:-3])
    return cases


class TestCorruptBlock:
    """A damaged block is a StorageError naming file and block — never
    NumPy's ValueError, struct.error, or a silently wrong block."""

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize(
        "dtype, tag, payload, rows, dictionary", corrupt_payloads()
    )
    def test_typed_error_only(
        self, tmp_path, dtype, tag, payload, rows, dictionary, cached
    ):
        path = tmp_path / "bad.seg"
        handmade_segment(path, dtype, tag, payload, rows, dictionary)
        reader = open_segment(path)
        source = scan_source(reader, cached)
        try:
            for decode in (
                lambda: reader.decode_block(0),
                lambda: reader.decode_run(0, 0),
                reader.read_all,
                lambda: source.slice(0, reader.rows),
            ):
                with pytest.raises(StorageError) as caught:
                    decode()
                assert "block 0" in str(caught.value)
                assert str(path) in str(caught.value)
            if cached:  # nothing of the damaged block was admitted
                assert source.cache.entry_count == 0
        finally:
            reader.close()

    def test_the_handmade_container_reads_when_the_payload_is_sound(
        self, tmp_path
    ):
        values = np.cumsum(np.arange(100, dtype=np.int64) % 7)
        path = tmp_path / "good.seg"
        handmade_segment(
            path, DataType.INT64, "for", encode_block_for(values), 100
        )
        loaded, __ = read_segment(path)
        np.testing.assert_array_equal(loaded.values, values)

    def test_constant_dictionary_block_is_not_corruption(self, tmp_path):
        # Width 0 is how a one-word dictionary block is written.
        path = tmp_path / "const.seg"
        handmade_segment(
            path, DataType.STRING, "dict", encode_block_codes(None, 0), 5, ("w",)
        )
        loaded, __ = read_segment(path)
        assert loaded.to_pylist() == ["w"] * 5

    @pytest.mark.parametrize("cached", [False, True])
    def test_file_cut_inside_a_block_names_the_file(self, tmp_path, cached):
        column = ColumnVector(DataType.INT64, np.arange(20_000, dtype=np.int64) ** 2)
        path = tmp_path / "col.seg"
        write_segment(path, column, sync=False)
        path.write_bytes(path.read_bytes()[:-500])
        with pytest.raises(StorageError, match="col.seg"):
            read_segment(path)
        reader = open_segment(path)  # the directory is whole; the tail is not
        try:
            with pytest.raises(StorageError, match="col.seg"):
                scan_source(reader, cached).slice(0, 20_000)
        finally:
            reader.close()

    def test_block_directory_out_of_order_is_refused_at_open(self, tmp_path):
        column = ColumnVector(DataType.INT64, np.arange(64, dtype=np.int64))
        path = tmp_path / "col.seg"
        write_segment(path, column, block_size=16, sync=False)
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        parsed = json.loads(header)
        parsed["blocks"][1][6], parsed["blocks"][2][6] = (
            parsed["blocks"][2][6],
            parsed["blocks"][1][6],
        )
        path.write_bytes(
            magic + b"\n" + json.dumps(parsed).encode("utf-8") + b"\n" + payload
        )
        with pytest.raises(StorageError):
            open_segment(path)


class TestBlockStats:
    def test_stats_match_recomputation(self, tmp_path):
        from repro.storage.blocks import compute_block_stats

        items = list(range(100, 0, -1))
        column = ColumnVector.from_pylist(DataType.INT64, items)
        path = tmp_path / "col.seg"
        write_segment(path, column, block_size=16, sync=False)
        __, stats = read_segment(path)
        assert stats == compute_block_stats(column, 16)

    def test_stats_usable_for_pruning(self, tmp_path):
        from repro.storage.blocks import prune_blocks

        column = ColumnVector.from_pylist(DataType.INT64, list(range(64)))
        path = tmp_path / "col.seg"
        write_segment(path, column, block_size=16, sync=False)
        __, stats = read_segment(path)
        assert prune_blocks(stats, ">", 47) == [(48, 64)]


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "col.seg"
        path.write_bytes(b"NOTSEG\n{}\n")
        with pytest.raises(StorageError):
            read_segment(path)

    def test_rseg1_magic_rejected(self, tmp_path):
        # The single-buffer predecessor format is named in the error,
        # not mistaken for a foreign file and never parsed.
        path = tmp_path / "col.seg"
        path.write_bytes(
            b'RSEG1\n{"dtype":"int64","rows":0,"block_size":4096,"blocks":[]}\n'
        )
        for opener in (read_segment, open_segment):
            with pytest.raises(StorageError, match="RSEG1") as info:
                opener(path)
            assert str(path) in str(info.value)

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "col.seg"
        path.write_bytes(b"RSEG2\nnot-json\n")
        with pytest.raises(StorageError):
            read_segment(path)

    def test_corrupt_v2_header(self, tmp_path):
        path = tmp_path / "col.seg"
        path.write_bytes(b"RSEG2\nnot-json\n")
        with pytest.raises(StorageError):
            read_segment(path)

    def test_truncated_values(self, tmp_path):
        column = ColumnVector.from_pylist(DataType.INT64, [1, 2, 3])
        path = tmp_path / "col.seg"
        write_segment(path, column, sync=False, encoding="raw")
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(StorageError):
            read_segment(path)

    def test_unknown_block_encoding(self, tmp_path):
        column = ColumnVector.from_pylist(DataType.INT64, [1, 2, 3])
        path = tmp_path / "col.seg"
        write_segment(path, column, sync=False)
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        parsed = json.loads(header)
        parsed["blocks"][0][5] = "xxx"
        path.write_bytes(
            magic + b"\n" + json.dumps(parsed).encode("utf-8") + b"\n" + payload
        )
        with pytest.raises(StorageError, match="block 0"):
            read_segment(path)

    def test_no_tmp_file_left_behind(self, tmp_path):
        column = ColumnVector.from_pylist(DataType.INT64, [1])
        write_segment(tmp_path / "col.seg", column, sync=False)
        assert [entry.name for entry in tmp_path.iterdir()] == ["col.seg"]
