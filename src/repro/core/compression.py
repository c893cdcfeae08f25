"""Patch-aware block compression (paper §VIII outlook).

The paper closes with: "we plan to investigate on opportunities the
PatchIndex offers for data compression, potentially increasing
compression ratios when treating discovered set of patches separately
and this way basing compression algorithms on discovered properties of
data."  That is the patch-processing lineage the paper cites — PFOR /
PFOR-DELTA (Zukowski et al., ICDE 2006) make compression robust by
storing outliers separately.

This module holds the bit-packing kernels and the per-block codecs the
RSEG2 segment format writes at checkpoint.  ``pfor`` is the paper's
idea for nearly sorted columns: with the NSC patches removed, the
remaining values are non-decreasing, so their deltas are small
non-negative integers that bit-pack tightly (delta +
frame-of-reference); the patches — exactly the values that would
otherwise blow up the delta width — are stored verbatim on the side,
addressed by the rowids the PatchIndex maintains.  Plain ``for`` has no
patch separation: on nearly sorted data with even a few exceptions its
delta domain includes large *negative* jumps, forcing a zig-zag
encoding with a much wider bit width
(``benchmarks/bench_ablation_compression.py`` measures the two).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import StorageError
from repro.storage.blocks import BlockStats


def _required_width(values: np.ndarray) -> int:
    """Bits needed to represent every value of a non-negative array."""
    if len(values) == 0:
        return 0
    peak = int(values.max())
    if peak < 0:
        raise StorageError("bit packing requires non-negative values")
    return max(1, peak.bit_length())


def pack_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Pack non-negative int64 values into ``width`` bits each.

    Vectorized via per-bit decomposition; returns a uint8 buffer of
    ``ceil(n * width / 8)`` bytes.
    """
    if width < 1 or width > 63:
        raise StorageError(f"bit width out of range: {width}")
    values = np.asarray(values, dtype=np.uint64)
    bits = (
        (values[:, None] >> np.arange(width, dtype=np.uint64)) & np.uint64(1)
    ).astype(np.uint8)
    return np.packbits(bits.reshape(-1), bitorder="little")


def _check_packed(available: int, width: int, count: int) -> int:
    """Bytes *count* values of *width* bits occupy, validated up front.

    Every unpack path calls this before it reads a byte, so a lying
    width or a truncated payload is a :class:`StorageError` and never an
    out-of-bounds window or a NumPy reshape error.
    """
    if not 1 <= width <= 63:
        raise StorageError(f"bit width out of range: {width}")
    if count < 0:
        raise StorageError(f"negative value count: {count}")
    needed = (count * width + 7) // 8
    if available < needed or available < 0:
        raise StorageError(
            f"packed buffer too short: {available} bytes for "
            f"{count} values of {width} bits"
        )
    return needed


def unpack_bits_reference(
    buffer: np.ndarray, width: int, count: int
) -> np.ndarray:
    """Bit-matrix inverse of :func:`pack_bits` (one byte per bit).

    The readable definition of the format, 40x the output in
    temporaries: it serves widths 58-63, which one 8-byte window cannot
    hold, and is the oracle the tests hold :func:`unpack_bits` to.
    """
    needed = _check_packed(len(buffer), width, count)
    bits = np.unpackbits(buffer[:needed], bitorder="little")[: count * width]
    bits = bits.reshape(count, width).astype(np.uint64)
    weights = np.uint64(1) << np.arange(width, dtype=np.uint64)
    return (bits * weights).sum(axis=1).astype(np.int64)


#: Widest value one little-endian 8-byte window holds at any bit
#: offset: the value starts at most 7 bits into its first byte.
_WINDOW_MAX_WIDTH = 57


def _unpack_rows(
    data: np.ndarray, first: int, stride: int, rows: int, width: int, count: int
) -> np.ndarray:
    """Unpack *rows* packed runs of *count* values into ``(rows, count)``.

    Row ``r`` starts at byte ``first + r * stride`` of *data*.  Eight
    consecutive values fill exactly *width* bytes, so value ``8g + lane``
    starts ``lane * width`` bits into the group at byte ``g * width``:
    per lane, one strided read of 8-byte words, a shift and a mask.  The
    words are read from an owned copy padded with 8 zero bytes — never
    from *data* itself, whose last windows would run past its end.
    """
    needed = _check_packed(len(data) - first - (rows - 1) * stride, width, count)
    if not count:
        return np.zeros((rows, 0), dtype=np.int64)
    if width > _WINDOW_MAX_WIDTH:
        return np.stack(
            [
                unpack_bits_reference(
                    data[first + row * stride :][:needed], width, count
                )
                for row in range(rows)
            ]
        )
    groups = (count + 7) // 8
    span = (rows - 1) * stride + groups * width
    padded = np.zeros(span + 8, dtype=np.uint8)
    held = min(span, len(data) - first)
    padded[:held] = data[first : first + held]
    lanes = np.empty((8, rows, groups), dtype=np.uint64)
    for lane in range(8):
        bit = lane * width
        windows = np.ndarray(
            (rows, groups),
            dtype="<u8",
            buffer=padded,
            offset=bit >> 3,
            strides=(stride, width),
        )
        np.right_shift(windows, np.uint64(bit & 7), out=lanes[lane])
    lanes &= np.uint64((1 << width) - 1)
    values = np.empty((rows, groups, 8), dtype=np.uint64)
    values[...] = lanes.transpose(1, 2, 0)
    return values.reshape(rows, groups * 8)[:, :count].view(np.int64)


def unpack_bits(buffer: np.ndarray, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns int64 values."""
    return _unpack_rows(buffer, 0, 0, 1, width, count)[0]


# ---------------------------------------------------------------------------
# Block-level codecs (the RSEG2 segment format)
# ---------------------------------------------------------------------------
#
# The durable RSEG2 format (repro.storage.segment) encodes each block of
# a column independently so a scan can decode only the blocks it visits.
# The codecs below operate on *physical* int64 value arrays — NULL slots
# already hold their fill value; validity lives at the segment level —
# and return self-contained little-endian payloads.  Every encoder
# returns ``None`` when it cannot represent the block or cannot beat the
# raw size, so raw is always the fallback.

#: Block encoding tags as stored in the RSEG2 header.
BLOCK_ENCODINGS = ("raw", "rle", "for", "pfor", "dict")

_FOR_HEADER = struct.Struct("<qB")  # base, delta bit width
_PFOR_HEADER = struct.Struct("<qBII")  # base, width, kept count, exc count
_RLE_HEADER = struct.Struct("<I")  # run count


def _delta_chain(values: np.ndarray) -> np.ndarray:
    """Leading-zero delta array such that ``base + cumsum`` restores values."""
    deltas = np.empty(len(values), dtype=np.int64)
    deltas[0] = 0
    np.subtract(values[1:], values[:-1], out=deltas[1:])
    return deltas


def _restore_chain(base: int, deltas: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_delta_chain` (int64 wraparound round-trips)."""
    return (np.cumsum(deltas, dtype=np.int64) + np.int64(base)).astype(np.int64)


def encode_block_rle(values: np.ndarray) -> bytes | None:
    """Run-length encode one block; ``None`` unless it beats raw."""
    n = len(values)
    if n == 0:
        return None
    starts = np.concatenate(
        [[0], np.flatnonzero(values[1:] != values[:-1]) + 1]
    ).astype(np.int64)
    if _RLE_HEADER.size + 12 * len(starts) >= 8 * n:
        return None
    lengths = np.diff(np.concatenate([starts, [n]]))
    return (
        _RLE_HEADER.pack(len(starts))
        + values[starts].astype("<i8").tobytes()
        + lengths.astype("<u4").tobytes()
    )


def _section(
    data: bytes, dtype: str, count: int, offset: int, what: str
) -> np.ndarray:
    """*count* little-endian items at *offset*, length-checked first."""
    item = np.dtype(dtype).itemsize
    if count < 0 or offset + item * count > len(data):
        raise StorageError(f"{what} cut short: {len(data)} bytes")
    return np.frombuffer(data, dtype=dtype, count=count, offset=offset)


def decode_block_rle(data: bytes, count: int) -> np.ndarray:
    """Decode an RLE block payload back into int64 values."""
    if len(data) < _RLE_HEADER.size:
        raise StorageError(f"RLE header cut short: {len(data)} bytes")
    (runs,) = _RLE_HEADER.unpack_from(data)
    offset = _RLE_HEADER.size
    run_values = _section(data, "<i8", runs, offset, "RLE run values")
    lengths = _section(data, "<u4", runs, offset + 8 * runs, "RLE run lengths")
    # Checked before np.repeat allocates what the lengths claim.
    if int(lengths.sum(dtype=np.int64)) != count:
        raise StorageError("corrupt RLE block: run lengths do not cover block")
    return np.repeat(run_values.astype(np.int64), lengths)


def encode_block_for(values: np.ndarray) -> bytes | None:
    """Frame-of-reference + zig-zag delta encode; ``None`` if not smaller."""
    n = len(values)
    if n == 0:
        return None
    deltas = _delta_chain(values)
    zigzag = (deltas << 1) ^ (deltas >> 63)
    if (zigzag < 0).any():  # delta overflow: the domain needs 64+ bits
        return None
    width = _required_width(zigzag)
    if _FOR_HEADER.size + (n * width + 7) // 8 >= 8 * n:
        return None
    return _FOR_HEADER.pack(int(values[0]), width) + pack_bits(
        zigzag, width
    ).tobytes()


def for_block_width(data: bytes, offset: int = 0) -> int:
    """Bit width the FOR payload at *offset* declares (0 if cut short).

    Lets a reader group neighbouring blocks for :func:`decode_blocks_for`
    without knowing the header layout.
    """
    at = offset + _FOR_HEADER.size - 1
    return data[at] if at < len(data) else 0


def decode_blocks_for(
    data: bytes, count: int, blocks: int = 1, out: np.ndarray | None = None
) -> np.ndarray:
    """Decode *blocks* FOR payloads laid back to back in *data*.

    The payloads must be equally long and share one bit width (full
    blocks of one segment column usually do); each holds *count* values.
    All of them are unpacked, un-zig-zagged, prefix-summed and re-based
    in one 2-D pass into ``(blocks, count)`` int64 — *out* when given.
    """
    stride, ragged = divmod(len(data), blocks)
    if ragged or stride < _FOR_HEADER.size:
        raise StorageError(
            f"FOR payload cut short: {len(data)} bytes for {blocks} blocks"
        )
    headers = [
        _FOR_HEADER.unpack_from(data, row * stride) for row in range(blocks)
    ]
    width = headers[0][1]
    if any(header[1] != width for header in headers):
        raise StorageError("FOR blocks of one run differ in bit width")
    zigzag = _unpack_rows(
        np.frombuffer(data, dtype=np.uint8),
        _FOR_HEADER.size,
        stride,
        blocks,
        width,
        count,
    )
    sign = zigzag & 1
    np.negative(sign, out=sign)
    zigzag >>= 1
    zigzag ^= sign  # (z >> 1) ^ -(z & 1), in the array _unpack_rows made
    # int64 wraparound round-trips, as in _restore_chain.
    values = np.cumsum(zigzag, axis=1, dtype=np.int64, out=out)
    values += np.asarray([header[0] for header in headers], dtype=np.int64)[
        :, None
    ]
    return values


def decode_block_for(data: bytes, count: int) -> np.ndarray:
    """Decode a FOR block payload back into int64 values."""
    return decode_blocks_for(data, count)[0]


def encode_block_pfor(
    values: np.ndarray, exception_positions: np.ndarray
) -> bytes | None:
    """Patch-aware FOR: exceptions verbatim, kept values delta-packed.

    *exception_positions* are block-local row offsets (the PatchIndex
    rowids restricted to this block, plus any NULL slots).  The kept
    values must be non-decreasing — the NSC invariant — otherwise the
    block cannot use this codec and ``None`` is returned.
    """
    n = len(values)
    if n == 0:
        return None
    exceptions = np.unique(np.asarray(exception_positions, dtype=np.int64))
    if len(exceptions) and (
        exceptions[0] < 0 or exceptions[-1] >= n or len(exceptions) >= n
    ):
        return None
    keep = np.ones(n, dtype=np.bool_)
    keep[exceptions] = False
    kept = values[keep]
    if len(kept):
        deltas = _delta_chain(kept)
        if (deltas < 0).any():  # patch set does not cover the disorder
            return None
        width = _required_width(deltas)
    else:
        width = 0
    size = (
        _PFOR_HEADER.size
        + (len(kept) * width + 7) // 8
        + 12 * len(exceptions)
    )
    if size >= 8 * n:
        return None
    packed = (
        pack_bits(deltas, width).tobytes() if len(kept) and width else b""
    )
    return (
        _PFOR_HEADER.pack(
            int(kept[0]) if len(kept) else 0,
            width,
            len(kept),
            len(exceptions),
        )
        + packed
        + exceptions.astype("<u4").tobytes()
        + values[exceptions].astype("<i8").tobytes()
    )


def decode_block_pfor(data: bytes, count: int) -> np.ndarray:
    """Decode a patch-aware FOR block payload back into int64 values."""
    if len(data) < _PFOR_HEADER.size:
        raise StorageError(f"PFOR header cut short: {len(data)} bytes")
    base, width, kept_count, exc_count = _PFOR_HEADER.unpack_from(data)
    if kept_count + exc_count != count:
        raise StorageError("corrupt PFOR block: counts do not cover block")
    offset = _PFOR_HEADER.size
    if kept_count:
        packed = np.frombuffer(data, dtype=np.uint8, offset=offset)
        deltas = unpack_bits(packed, width, kept_count)
        offset += (kept_count * width + 7) // 8
    positions = _section(
        data, "<u4", exc_count, offset, "PFOR exception positions"
    ).astype(np.int64)
    exc_values = _section(
        data, "<i8", exc_count, offset + 4 * exc_count, "PFOR exception values"
    )
    if exc_count and (
        positions[-1] >= count or (positions[1:] <= positions[:-1]).any()
    ):
        raise StorageError(
            "corrupt PFOR block: exception positions out of range or order"
        )
    out = np.empty(count, dtype=np.int64)
    keep = np.ones(count, dtype=np.bool_)
    keep[positions] = False
    if kept_count:
        out[keep] = _restore_chain(base, deltas)
    out[positions] = exc_values
    return out


def encode_block_codes(codes: np.ndarray, width: int) -> bytes:
    """Pack per-block dictionary codes at a fixed *width* (0 = constant)."""
    payload = struct.pack("<B", width)
    if width:
        payload += pack_bits(codes, width).tobytes()
    return payload


def decode_block_codes(data: bytes, count: int) -> np.ndarray:
    """Unpack per-block dictionary codes; returns int64 code ids."""
    if not len(data):
        raise StorageError("dictionary code block is empty")
    width = data[0]
    if not width:
        return np.zeros(count, dtype=np.int64)
    packed = np.frombuffer(data, dtype=np.uint8, offset=1)
    return unpack_bits(packed, width, count)


def build_string_dictionary(
    values: np.ndarray,
) -> tuple[list[str], np.ndarray, int]:
    """Sorted unique strings, per-row codes, and the per-code bit width."""
    unique, codes = np.unique(values, return_inverse=True)
    width = (
        max(1, int(len(unique) - 1).bit_length()) if len(unique) > 1 else 0
    )
    return list(unique), codes.astype(np.int64), width


def pick_int_block_encoding(
    values: np.ndarray,
    exception_positions: np.ndarray | None = None,
    stats: BlockStats | None = None,
) -> tuple[str, bytes | None]:
    """Choose the cheapest encoding for one int64 block.

    Cost-based: candidate payloads are produced and the smallest wins,
    with raw (``None`` payload) as the floor.  The per-block min/max/null
    sketch short-circuits hopeless candidates: a constant block goes
    straight to RLE, and a value span needing 60+ delta bits skips the
    FOR attempt entirely.
    """
    n = len(values)
    best: tuple[str, bytes | None] = ("raw", None)
    best_size = 8 * n
    if n == 0:
        return best

    constant = (
        stats is not None
        and stats.null_count == 0
        and stats.minimum is not None
        and stats.minimum == stats.maximum
    )
    rle = encode_block_rle(values)
    if rle is not None and len(rle) < best_size:
        best, best_size = ("rle", rle), len(rle)
        if constant:
            return best  # nothing beats one run

    try_for = True
    if (
        stats is not None
        and stats.minimum is not None
        and stats.maximum is not None
        and isinstance(stats.minimum, int)
        and isinstance(stats.maximum, int)
    ):
        span = stats.maximum - stats.minimum
        try_for = span >= 0 and (2 * span).bit_length() < 60
    if try_for:
        encoded = encode_block_for(values)
        if encoded is not None and len(encoded) < best_size:
            best, best_size = ("for", encoded), len(encoded)

    if exception_positions is not None and len(exception_positions):
        encoded = encode_block_pfor(values, exception_positions)
        if encoded is not None and len(encoded) < best_size:
            best, best_size = ("pfor", encoded), len(encoded)
    return best
