"""Patch-aware block compression (paper §VIII outlook).

The paper closes with: "we plan to investigate on opportunities the
PatchIndex offers for data compression, potentially increasing
compression ratios when treating discovered set of patches separately
and this way basing compression algorithms on discovered properties of
data."  That is the patch-processing lineage the paper cites — PFOR /
PFOR-DELTA (Zukowski et al., ICDE 2006) make compression robust by
storing outliers separately.

This module holds the bit-packing kernels and the per-block codecs the
RSEG2 segment format writes at checkpoint.  ``bp`` is plain frame of
reference: offsets from the block minimum, bit-packed, decoded with one
add.  ``for`` is zig-zag delta frame of reference: it packs the
differences between neighbours, so it wins where a block climbs in
small steps (a ramp) and pays a prefix sum on decode.  The picker
chooses between the two by bit width before it packs anything.
``pfor`` is the paper's idea for nearly sorted columns: with the NSC
patches removed, the remaining values are non-decreasing, so their
deltas are small non-negative integers that bit-pack tightly; the
patches — exactly the values that would otherwise blow up the delta
width — are stored verbatim on the side, addressed by the rowids the
PatchIndex maintains.  ``for`` has no patch separation: on nearly
sorted data with even a few exceptions its delta domain includes large
*negative* jumps, forcing a much wider zig-zag width, and ``bp`` must
span the exceptions' values
(``benchmarks/bench_ablation_compression.py`` measures all three).
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
    hold and no block codec packs but the format admits, and is the
    oracle the tests hold :func:`unpack_bits` to.
    """
    needed = _check_packed(len(buffer), width, count)
    bits = np.unpackbits(buffer[:needed], bitorder="little")[: count * width]
    bits = bits.reshape(count, width).astype(np.uint64)
    weights = np.uint64(1) << np.arange(width, dtype=np.uint64)
    return (bits * weights).sum(axis=1).astype(np.int64)


#: Widest value one little-endian 8-byte window holds at any bit
#: offset: the value starts at most 7 bits into its first byte.  It is
#: also the widest field a writer packs, so every block a checkpoint
#: writes decodes through the window kernel.
_WINDOW_MAX_WIDTH = 57


def _unpack_rows(
    data: np.ndarray,
    first: int,
    stride: int,
    rows: int,
    width: int,
    count: int,
    out: np.ndarray,
) -> np.ndarray:
    """Unpack *rows* packed runs of *count* values into *out*, int64
    ``(rows, count)``, and return it.

    Row ``r`` starts at byte ``first + r * stride`` of *data*.  Eight
    consecutive values fill exactly *width* bytes, so value ``8g + lane``
    starts ``lane * width`` bits into the group at byte ``g * width``.
    Per lane, one strided read of the 8-byte words that *end* at each
    value's last byte, shifted straight into that lane's columns of
    *out*; then one mask over *out*.  A word never reads past the packed
    bytes, and starts at most 7 bytes before them: a frame's header lies
    there.  Only a run with fewer than 7 bytes in front of it is read
    from a copy with 8 zero bytes prepended.  Nothing else is allocated.
    """
    needed = _check_packed(len(data) - first - (rows - 1) * stride, width, count)
    if not count:
        return out
    if width > _WINDOW_MAX_WIDTH:
        for row in range(rows):
            out[row] = unpack_bits_reference(
                data[first + row * stride :][:needed], width, count
            )
        return out
    if first < 7:
        span = (rows - 1) * stride + needed
        padded = np.zeros(8 + span, dtype=np.uint8)
        padded[8:] = data[first : first + span]
        data, first = padded, 8
    fields = out.view(np.uint64)
    for lane in range(min(8, count)):
        bit = lane * width
        last_byte = (bit + width - 1) >> 3
        windows = np.ndarray(
            (rows, (count - lane + 7) // 8),
            dtype="<u8",
            buffer=data,
            offset=first + last_byte - 7,
            strides=(stride, width),
        )
        shift = np.uint64(bit - 8 * (last_byte - 7))
        np.right_shift(windows, shift, out=fields[:, lane::8])
    np.bitwise_and(fields, np.uint64((1 << width) - 1), out=fields)
    return out


def unpack_bits(buffer: np.ndarray, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns int64 values."""
    out = np.empty((1, max(0, count)), dtype=np.int64)
    return _unpack_rows(buffer, 0, 0, 1, width, count, out)[0]


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
BLOCK_ENCODINGS = ("raw", "rle", "for", "bp", "pfor", "dict")

_FOR_HEADER = struct.Struct("<qB")  # base, bit width (``for`` and ``bp``)
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


def _zigzag_deltas(values: np.ndarray) -> np.ndarray | None:
    """Zig-zag neighbour deltas of *values*, ``None`` if one overflows."""
    deltas = _delta_chain(values)
    zigzag = (deltas << 1) ^ (deltas >> 63)
    if (zigzag < 0).any():  # delta overflow: the domain needs 64+ bits
        return None
    return zigzag


def _span_width(values: np.ndarray) -> tuple[int, int]:
    """Minimum of *values* and the bits its offsets need (``bp``'s frame).

    Python ints: the span of an int64 block may need 64 bits.
    """
    base = int(values.min())
    return base, max(1, (int(values.max()) - base).bit_length())


def _frame_payload(base: int, width: int, fields: np.ndarray) -> bytes | None:
    """``_FOR_HEADER`` + *fields* packed at *width*; ``None`` past the
    window kernel's width or unless smaller than raw."""
    n = len(fields)
    if width > _WINDOW_MAX_WIDTH or _FOR_HEADER.size + (n * width + 7) // 8 >= 8 * n:
        return None
    return _FOR_HEADER.pack(base, width) + pack_bits(fields, width).tobytes()


def encode_block_for(values: np.ndarray) -> bytes | None:
    """Zig-zag delta frame of reference; ``None`` if not smaller than raw."""
    if len(values) == 0:
        return None
    zigzag = _zigzag_deltas(values)
    if zigzag is None:
        return None
    return _frame_payload(int(values[0]), _required_width(zigzag), zigzag)


def encode_block_bp(values: np.ndarray) -> bytes | None:
    """Plain frame of reference: offsets from the block minimum, packed.

    ``None`` if not smaller than raw, or if the span needs more bits than
    the window kernel reads (an int64 overflow among them).  *values*
    are physical: NULL slots hold fill values and count toward the span.
    """
    if len(values) == 0:
        return None
    base, width = _span_width(values)
    if width > _WINDOW_MAX_WIDTH:
        return None
    return _frame_payload(base, width, values - np.int64(base))


def for_block_width(data: bytes, offset: int = 0) -> int:
    """Bit width the ``for`` / ``bp`` payload at *offset* declares (0 if
    cut short).

    Lets a reader group neighbouring blocks for :func:`decode_blocks_for`
    and :func:`decode_blocks_bp` without knowing the header layout.
    """
    at = offset + _FOR_HEADER.size - 1
    return data[at] if at < len(data) else 0


def _unpack_frames(
    data: bytes, count: int, blocks: int, out: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Bases ``(blocks, 1)`` and the packed fields of *blocks* equally
    long ``_FOR_HEADER`` payloads of one bit width, unpacked into *out*
    (a new C-contiguous ``(blocks, count)`` int64 array when ``None``)."""
    stride, ragged = divmod(len(data), blocks)
    if ragged or stride < _FOR_HEADER.size:
        raise StorageError(
            f"frame payload cut short: {len(data)} bytes for {blocks} blocks"
        )
    headers = [
        _FOR_HEADER.unpack_from(data, row * stride) for row in range(blocks)
    ]
    width = headers[0][1]
    if any(header[1] != width for header in headers):
        raise StorageError("frame blocks of one run differ in bit width")
    if out is None:
        out = np.empty((blocks, count), dtype=np.int64)
    elif (
        out.shape != (blocks, count)
        or out.dtype != np.int64
        or not out.flags.c_contiguous
    ):
        raise ValueError(
            f"out must be C-contiguous int64 of shape {(blocks, count)}"
        )
    _unpack_rows(
        np.frombuffer(data, dtype=np.uint8),
        _FOR_HEADER.size,
        stride,
        blocks,
        width,
        count,
        out,
    )
    bases = np.asarray([header[0] for header in headers], dtype=np.int64)
    return bases[:, None], out


#: Values one pass of :func:`_unzigzag` takes: its scratch (256 KiB)
#: stays cache-sized, and the passes are long enough that their calls
#: cost nothing measurable.
_ZIGZAG_CHUNK = 32768


def _unzigzag(values: np.ndarray) -> None:
    """``(z >> 1) ^ -(z & 1)`` over C-contiguous *values*, in place.

    The sign term is a second operand; it goes through one scratch of
    at most :data:`_ZIGZAG_CHUNK` values, a chunk at a time.
    """
    fields = values.view(np.uint64).reshape(-1)
    scratch = np.empty(min(len(fields), _ZIGZAG_CHUNK), dtype=np.uint64)
    one = np.uint64(1)
    for lo in range(0, len(fields), _ZIGZAG_CHUNK):
        part = fields[lo : lo + _ZIGZAG_CHUNK]
        sign = scratch[: len(part)]
        np.bitwise_and(part, one, out=sign)
        np.negative(sign, out=sign)
        part >>= one
        part ^= sign


def decode_blocks_for(
    data: bytes, count: int, blocks: int = 1, out: np.ndarray | None = None
) -> np.ndarray:
    """Decode *blocks* ``for`` payloads laid back to back in *data*.

    The payloads must be equally long and share one bit width (full
    blocks of one segment column usually do); each holds *count* values.
    All of them are unpacked, un-zig-zagged, prefix-summed and re-based
    in one 2-D pass into ``(blocks, count)`` int64 — *out* when given,
    which every step writes in place.
    """
    bases, values = _unpack_frames(data, count, blocks, out)
    _unzigzag(values)
    # int64 wraparound round-trips, as in _restore_chain.
    np.cumsum(values, axis=1, dtype=np.int64, out=values)
    values += bases
    return values


def decode_block_for(data: bytes, count: int) -> np.ndarray:
    """Decode a ``for`` block payload back into int64 values."""
    return decode_blocks_for(data, count)[0]


def decode_blocks_bp(
    data: bytes, count: int, blocks: int = 1, out: np.ndarray | None = None
) -> np.ndarray:
    """Decode *blocks* ``bp`` payloads laid back to back in *data*.

    The same layout rules as :func:`decode_blocks_for`; the decode is
    the 2-D unpack and one broadcast add of the bases — no prefix sum.
    """
    bases, values = _unpack_frames(data, count, blocks, out)
    values += bases
    return values


def decode_block_bp(data: bytes, count: int) -> np.ndarray:
    """Decode a ``bp`` block payload back into int64 values."""
    return decode_blocks_bp(data, count)[0]


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
        if width > _WINDOW_MAX_WIDTH:
            return None
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
    with raw (``None`` payload) as the floor.  Of the two frame codecs
    only one is packed: ``bp`` unless the zig-zag deltas need fewer
    bits than the span, then ``for`` — a tie goes to ``bp``, whose
    decode skips the prefix sum.  Neither packs wider than 57 bits.
    The per-block min/max/null sketch short-circuits hopeless
    candidates: a constant block goes straight to RLE, and a value span
    wider than 57 bits skips both frame codecs.
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

    try_frame = True
    if (
        stats is not None
        and stats.minimum is not None
        and stats.maximum is not None
        and isinstance(stats.minimum, int)
        and isinstance(stats.maximum, int)
    ):
        span = stats.maximum - stats.minimum
        try_frame = 0 <= span and span.bit_length() <= _WINDOW_MAX_WIDTH
    if try_frame:
        zigzag = _zigzag_deltas(values)
        delta_width = 64 if zigzag is None else _required_width(zigzag)
        encoded: bytes | None = None
        if _span_width(values)[1] <= delta_width:
            tag, encoded = "bp", encode_block_bp(values)
        elif zigzag is not None:  # always: the span never needs 65 bits
            tag = "for"
            encoded = _frame_payload(int(values[0]), delta_width, zigzag)
        if encoded is not None and len(encoded) < best_size:
            best, best_size = (tag, encoded), len(encoded)

    if exception_positions is not None and len(exception_positions):
        encoded = encode_block_pfor(values, exception_positions)
        if encoded is not None and len(encoded) < best_size:
            best, best_size = ("pfor", encoded), len(encoded)
    return best
