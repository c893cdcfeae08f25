"""Immutable per-column segment files (the durable columnar format).

A *segment* persists one :class:`~repro.storage.column.ColumnVector` —
one column of one partition — as a single self-describing ``RSEG2``
file: magic + JSON header + per-block *encoded* payloads + packed
validity bits.  Each block of ``block_size`` rows is encoded
independently by a cost-based picker
(:func:`repro.core.compression.pick_int_block_encoding`) driven by the
per-block min/max/null sketches: ``raw`` (the fallback), ``rle`` for
runs, ``bp`` (frame of reference: offsets from the block minimum) for
dense ints, ``for`` (zig-zag delta frame of reference) where neighbour
deltas need fewer bits than the span, ``pfor`` (patch-aware delta FOR
— the table's PatchIndex rowids store exceptions verbatim so the kept
values pack at the clean-column rate, the paper's §VIII outlook), and
``dict`` for low-cardinality strings against a segment-level sorted
dictionary.  The header records
``[start, stop, min, max, nulls, enc, offset, length]`` per block, so a
reader can prune *and* decode blocks independently — the scan path
decodes on demand through the block cache (:mod:`repro.storage.cache`)
instead of materializing whole columns.

Segments are immutable once written.  A checkpoint writes the columns
of one partition back to back into one file (:func:`write_segments`),
each still a complete segment that :class:`SegmentReader` opens at the
offset and length the manifest records.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.core.compression import (
    build_string_dictionary,
    decode_block_codes,
    decode_block_pfor,
    decode_block_rle,
    decode_blocks_bp,
    decode_blocks_for,
    encode_block_codes,
    for_block_width,
    pfor_exception_positions,
    pick_int_block_encoding,
)
from repro.errors import StorageError
from repro.storage import disk
from repro.storage.blocks import DEFAULT_BLOCK_SIZE, BlockStats, block_stats
from repro.storage.column import ColumnVector
from repro.types import DataType
from repro.types.datatypes import numpy_dtype

_MAGIC = b"RSEG2\n"
#: The single-buffer predecessor format; rejected by name, never read.
_MAGIC_UNSUPPORTED = b"RSEG1\n"

#: Dtypes whose physical values are int64 (eligible for int codecs).
_INT_PHYSICAL = frozenset({DataType.INT64, DataType.DATE})

#: Most ``for`` or ``bp`` blocks one 2-D decode pass takes.  A pass
#: writes its output in place, with no temporaries, but sweeps it about
#: ten times (eight strided lane shifts, the mask, the bases), so the
#: output should stay in L2: 32 blocks of 4096 rows are 1 MiB, one full
#: scan run.  Measured (EXPERIMENTS.md, "Statement-sized temporaries"):
#: the cost per value falls to 16 blocks, is flat to 32 and rises at 64.
_FOR_GROUP_BLOCKS = 32

#: The frame codecs whose neighbouring blocks decode as one 2-D pass.
_GROUP_DECODERS = {"for": decode_blocks_for, "bp": decode_blocks_bp}


def _jsonable_stat(value: object) -> object:
    """Make a block-stat bound JSON-serializable (NumPy scalars → Python)."""
    if isinstance(value, np.generic):
        return value.item()
    return value


@dataclass(frozen=True)
class SegmentWriteInfo:
    """What one :func:`write_segment` call produced.

    ``encodings`` maps encoding tag → block count; ``payload_bytes`` is
    the encoded block payload total and ``raw_payload_bytes`` what raw
    blocks would have cost, so ``payload_bytes / raw_payload_bytes`` is
    the segment's compression ratio (≤ 1.0 when encoding helped).
    """

    bytes_written: int
    rows: int
    encodings: dict[str, int] = field(default_factory=dict)
    payload_bytes: int = 0
    raw_payload_bytes: int = 0
    #: Blocks copied as encoded bytes from the previous segment
    #: (:func:`encode_segment`'s *previous*); the rest were encoded.
    blocks_carried: int = 0

    @property
    def encoded_ratio(self) -> float:
        if self.raw_payload_bytes <= 0:
            return 1.0
        return self.payload_bytes / self.raw_payload_bytes


def _raw_block_bytes(dtype: DataType, rows: int, text_bytes: int = 0) -> int:
    """What a block of *rows* would cost raw: fixed-width values, or a
    string block's ``rows + 1`` int64 offsets plus its UTF-8 text."""
    if dtype == DataType.STRING:
        return 8 * (rows + 1) + text_bytes
    return numpy_dtype(dtype).itemsize * rows


def _raw_fixed_payload(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values).tobytes()


def _raw_string_payload(pieces: list[bytes]) -> bytes:
    offsets = np.zeros(len(pieces) + 1, dtype=np.int64)
    np.cumsum([len(piece) for piece in pieces], out=offsets[1:])
    return offsets.tobytes() + b"".join(pieces)


def encode_segment(
    column: ColumnVector,
    block_size: int = DEFAULT_BLOCK_SIZE,
    *,
    patch_rowids: np.ndarray | None = None,
    previous: "SegmentReader | None" = None,
) -> tuple[list[bytes], SegmentWriteInfo]:
    """*column* as one RSEG2 segment — its pieces in file order, joined
    by nothing so a writer streams them — and what they hold.

    Each block is encoded by the per-block cost-based picker.
    *patch_rowids* are the partition-local rowids of the column's NSC
    PatchIndex patches: blocks containing them may use the patch-aware
    ``pfor`` codec, storing those rows verbatim.

    *previous* is the segment the last checkpoint wrote for the column.
    Each block that encoding it now would write exactly as *previous*
    holds it (:func:`_carried_blocks`) is copied from there as encoded
    bytes, with its header entry, so the pieces are what a full encode
    returns either way; ``info.blocks_carried`` counts them.
    """
    rows = len(column)
    validity = column.validity
    bounds = [
        (start, min(start + block_size, rows)) for start in range(0, rows, block_size)
    ]

    patch_positions: np.ndarray | None = None
    if patch_rowids is not None and len(patch_rowids):
        patch_positions = np.unique(
            np.asarray(patch_rowids, dtype=np.int64)
        )
    carried: dict[int, tuple[list, bytes]] = {}
    if previous is not None and column.dtype != DataType.STRING:
        try:
            carried = _carried_blocks(
                column, block_size, previous, patch_positions
            )
        except StorageError:  # a damaged previous segment: encode it all
            carried = {}

    # Segment-level string dictionary: profitable when the per-block
    # packed codes plus the dictionary undercut the raw offsets + pool.
    dictionary: list[str] | None = None
    dict_codes: np.ndarray | None = None
    dict_width = 0
    dict_payload = b""
    pieces_by_block: list[list[bytes]] = []
    if column.dtype == DataType.STRING:
        physical = [
            (value if column.is_valid(position) else "")
            for position, value in enumerate(column.values)
        ]
        pieces = [text.encode("utf-8") for text in physical]
        pieces_by_block = [pieces[start:stop] for start, stop in bounds]
        if rows:
            values = np.empty(rows, dtype=object)
            for position, text in enumerate(physical):
                values[position] = text
            unique, codes, width = build_string_dictionary(values)
            pool = b"".join(text.encode("utf-8") for text in unique)
            offsets = np.zeros(len(unique) + 1, dtype=np.int64)
            np.cumsum([len(u.encode("utf-8")) for u in unique], out=offsets[1:])
            dict_size = len(offsets.tobytes()) + len(pool) + sum(
                1 + ((stop - start) * width + 7) // 8 for start, stop in bounds
            )
            raw_size = sum(
                8 * (stop - start + 1) for start, stop in bounds
            ) + sum(len(piece) for piece in pieces)
            if dict_size < raw_size:
                dictionary = unique
                dict_codes = codes
                dict_width = width
                dict_payload = offsets.tobytes() + pool

    block_entries: list[list] = []
    block_payloads: list[bytes] = []
    encodings: dict[str, int] = {}
    payload_bytes = 0
    raw_payload_bytes = 0
    offset = len(dict_payload)
    for block_index, (start, stop) in enumerate(bounds):
        carry = carried.get(block_index)
        if carry is not None:
            entry, payload = carry
            head, tag = entry[:5], entry[5]
            raw_cost = _raw_block_bytes(column.dtype, stop - start)
        else:
            block = block_stats(column, start, stop)
            head = [
                start,
                stop,
                _jsonable_stat(block.minimum),
                _jsonable_stat(block.maximum),
                block.null_count,
            ]
            values = column.values[start:stop]
            if column.dtype == DataType.STRING:
                raw_cost = _raw_block_bytes(
                    column.dtype,
                    block.row_count,
                    sum(len(piece) for piece in pieces_by_block[block_index]),
                )
                if dict_codes is not None:
                    tag = "dict"
                    payload = encode_block_codes(dict_codes[start:stop], dict_width)
                else:
                    tag = "raw"
                    payload = _raw_string_payload(pieces_by_block[block_index])
            else:
                raw_cost = _raw_block_bytes(column.dtype, block.row_count)
                tag, encoded = "raw", None
                if column.dtype in _INT_PHYSICAL:
                    exceptions = _block_exceptions(
                        column, start, stop, patch_positions
                    )
                    tag, encoded = pick_int_block_encoding(
                        values, exceptions if len(exceptions) else None, stats=block
                    )
                payload = (
                    encoded if encoded is not None else _raw_fixed_payload(values)
                )
        block_entries.append([*head, tag, offset, len(payload)])
        block_payloads.append(payload)
        encodings[tag] = encodings.get(tag, 0) + 1
        payload_bytes += len(payload)
        raw_payload_bytes += raw_cost
        offset += len(payload)

    validity_bytes = (
        np.packbits(validity).tobytes() if validity is not None else b""
    )
    payload_len = offset + len(validity_bytes)
    header = {
        "dtype": column.dtype.value,
        "rows": rows,
        "block_size": block_size,
        "validity_len": len(validity_bytes),
        "payload_len": payload_len,
        "dict": (
            {"count": len(dictionary), "bytes": len(dict_payload)}
            if dictionary is not None
            else None
        ),
        "blocks": block_entries,
    }
    header_line = json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"
    pieces = [_MAGIC, header_line, dict_payload, *block_payloads, validity_bytes]
    return pieces, SegmentWriteInfo(
        bytes_written=sum(map(len, pieces)),
        rows=rows,
        encodings=encodings,
        payload_bytes=payload_bytes,
        raw_payload_bytes=raw_payload_bytes,
        blocks_carried=len(carried),
    )


def _block_exceptions(
    column: ColumnVector, start: int, stop: int, patch_positions: np.ndarray | None
) -> np.ndarray:
    """The block-local rows of ``[start, stop)`` an int block stores
    verbatim under ``pfor``: its patch rows and its NULL slots,
    ascending."""
    local = np.empty(0, dtype=np.int64)
    if patch_positions is not None:
        lo, hi = np.searchsorted(patch_positions, (start, stop))
        local = patch_positions[lo:hi] - start
    if column.validity is not None:
        nulls = np.flatnonzero(~column.validity[start:stop])
        if len(nulls):
            local = np.union1d(local, nulls)
    return local


def _bit_pattern(values: np.ndarray) -> np.ndarray:
    """*values* compared bit for bit: a float as its int64 pattern, so
    NaN equals the same NaN and ``-0.0`` differs from ``0.0``."""
    return values.view(np.int64) if values.dtype.kind == "f" else values


def _carried_blocks(
    column: ColumnVector,
    block_size: int,
    previous: "SegmentReader",
    patch_positions: np.ndarray | None,
) -> dict[int, tuple[list, bytes]]:
    """Block index → header entry and encoded payload, in *previous*, of
    each block of *column* that *previous* holds as encoding it now
    would write it.

    That is so when the block spans the same rows in both, they are
    unchanged in place bit for bit (values, NULL slots and what those
    slots store), and the picker would see the same ``pfor`` exceptions:
    a ``pfor`` block's stored exception rows must be the block's patch
    rows and NULLs now, and any other int block must have neither (an
    exception the old hint had might have made ``pfor`` lose to it, where
    now it would win).  A
    block whose stored bounds are NaN was bounded by a writer that did
    not leave NaN out: it is encoded afresh.
    """
    if previous.dtype != column.dtype or previous.block_size != block_size:
        return {}
    rows = len(column)
    last = -1
    for index, block in enumerate(previous.stats):
        if block.start != index * block_size or block.stop != min(
            block.start + block_size, rows
        ):
            break
        last = index
    if last < 0:
        return {}
    old = previous.decode_run(0, last)
    shared = len(old)
    changed = _bit_pattern(old.values) != _bit_pattern(column.values[:shared])
    if old.validity is not None or column.validity is not None:
        changed |= (
            old.validity_or_all_true()
            != column.validity_or_all_true()[:shared]
        )
    dirty = set((np.flatnonzero(changed) // block_size).tolist())
    hinted = column.dtype in _INT_PHYSICAL
    carried: dict[int, tuple[list, bytes]] = {}
    for index in range(last + 1):
        entry = previous.block_entry(index)
        if index in dirty or any(
            isinstance(bound, float) and bound != bound for bound in entry[2:4]
        ):
            continue
        payload = previous.block_payload(index)
        if hinted:
            start, stop = entry[0], entry[1]
            exceptions = _block_exceptions(column, start, stop, patch_positions)
            if entry[5] == "pfor":
                stored = pfor_exception_positions(payload, stop - start)
                if not np.array_equal(stored, exceptions):
                    continue
            elif len(exceptions):
                continue
        carried[index] = (entry, payload)
    return carried


def write_segments(
    path: str | os.PathLike, segments: Iterable[list[bytes]], *, sync: bool
) -> list[tuple[int, int]]:
    """Write *segments*, each given as its pieces, back to back as a new
    file at *path*; returns the ``(offset, length)`` of each, what
    :class:`SegmentReader` opens.  *segments* may be a generator: only
    the segment being written need be in memory.

    The file is written in place, never renamed over another: a crash
    mid-write leaves a file no manifest names, which the next reopen
    deletes (:meth:`repro.storage.engine.DurableEngine.recover`).
    """
    extents: list[tuple[int, int]] = []
    offset = 0
    try:
        with disk.DISK.create("segments.create", Path(path)) as handle:
            for pieces in segments:
                length = 0
                for piece in pieces:
                    disk.DISK.write("segments.write", handle, piece)
                    length += len(piece)
                extents.append((offset, length))
                offset += length
            if sync:
                disk.DISK.fsync("segments.fsync", handle)
    except OSError as exc:
        raise StorageError(f"could not write {path}: {exc}") from exc
    return extents


def write_segment(
    path: str | os.PathLike,
    column: ColumnVector,
    block_size: int = DEFAULT_BLOCK_SIZE,
    *,
    sync: bool = True,
    patch_rowids: np.ndarray | None = None,
) -> SegmentWriteInfo:
    """Write *column* as a file holding one RSEG2 segment at *path*
    (:func:`encode_segment`'s arguments)."""
    pieces, info = encode_segment(column, block_size, patch_rowids=patch_rowids)
    write_segments(path, [pieces], sync=sync)
    return info


def _parse_stats(header: dict) -> list[BlockStats]:
    return [
        BlockStats(int(entry[0]), int(entry[1]), entry[2], entry[3], int(entry[4]))
        for entry in header["blocks"]
    ]


class SegmentReader:
    """Random per-block access to one segment: a whole file, or the
    *length* bytes at *offset* of a file holding several back to back
    (:func:`write_segments`).

    Blocks decode independently: :meth:`decode_block` reads only that
    block's payload bytes (via ``os.pread`` on a shared handle) and
    decodes it.
    """

    #: Segment format version read (``RSEG<version>``).
    version = 2

    def __init__(
        self, path: str | os.PathLike, offset: int = 0, length: int | None = None
    ):
        self.path = Path(path)
        self.offset = offset
        self._handle = open(self.path, "rb")
        self._handle.seek(offset)
        magic = self._handle.readline()
        if magic != _MAGIC:
            self._handle.close()
            if magic == _MAGIC_UNSUPPORTED:
                raise StorageError(
                    f"unsupported segment format RSEG1 (only RSEG2 is "
                    f"read): {path}"
                )
            raise StorageError(f"not a segment file: {path}")
        try:
            header = json.loads(self._handle.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._handle.close()
            raise StorageError(f"corrupt segment header: {path}") from exc
        self.dtype = DataType(header["dtype"])
        self.rows = int(header["rows"])
        self.block_size = int(header["block_size"])
        self.stats = _parse_stats(header)
        self._payload_start = self._handle.tell()
        #: Bytes of the segment, magic to validity bitmap.
        self.length = self._payload_start - offset + int(header["payload_len"])
        self._dictionary: np.ndarray | None = None
        self.validity: np.ndarray | None = None
        try:
            if length is not None and length != self.length:
                raise StorageError(
                    f"corrupt segment header: {path} at {offset} spans "
                    f"{self.length} bytes, not {length}"
                )
            self._open_payload(header)
        except StorageError:
            self._handle.close()
            raise

    def _open_payload(self, header: dict) -> None:
        """Block directory, validity and dictionary."""
        self.encodings = [str(entry[5]) for entry in header["blocks"]]
        self._entries: list[list] = header["blocks"]
        self._blocks = [
            (str(entry[5]), int(entry[6]), int(entry[7]))
            for entry in header["blocks"]
        ]
        payload_len = int(header["payload_len"])
        validity_len = int(header["validity_len"])
        floor = 0
        for _, offset, length in self._blocks:
            # decode_run reads first.offset … last.offset + length in one
            # go, so the header must lay blocks out in ascending order.
            if offset < floor or length < 0:
                raise StorageError(f"corrupt segment header: {self.path}")
            floor = offset + length
        if floor > payload_len - validity_len:
            raise StorageError(f"corrupt segment header: {self.path}")
        if validity_len:
            if 8 * validity_len < self.rows:
                raise StorageError(f"validity bitmap cut short: {self.path}")
            raw = self._read(payload_len - validity_len, validity_len)
            self.validity = np.unpackbits(
                np.frombuffer(raw, dtype=np.uint8), count=self.rows
            ).astype(np.bool_)
        dict_entry = header.get("dict")
        if dict_entry is not None:
            try:
                self._dictionary = _decode_raw_strings(
                    self._read(0, int(dict_entry["bytes"])),
                    int(dict_entry["count"]),
                )
            except StorageError as exc:
                raise StorageError(
                    f"corrupt dictionary of {self.path}: {exc}"
                ) from exc

    # -- raw IO ---------------------------------------------------------

    def _read(self, offset: int, length: int) -> bytes:
        """Fetch *length* payload bytes at payload-relative *offset*."""
        data = os.pread(self._handle.fileno(), length, self._payload_start + offset)
        if len(data) != length:
            raise StorageError(
                f"segment file cut short: {self.path} holds {len(data)} of "
                f"{length} bytes at payload offset {offset}"
            )
        return data

    # -- block interface ------------------------------------------------

    @property
    def block_count(self) -> int:
        return len(self.stats)

    def block_payload_bytes(self, index: int) -> int:
        """On-disk (encoded) payload bytes of block *index*."""
        return self._blocks[index][2]

    @cached_property
    def row_bytes(self) -> int:
        """Decoded bytes per row, rounded up, as
        :func:`~repro.storage.cache.vector_nbytes` counts a block: the
        values — for STRING an 8-byte reference plus the text, read off
        a raw block's payload length or the dictionary's mean — and one
        validity byte a row in a block holding a NULL.  Read from the
        header and the dictionary; no block is decoded."""
        if not self.rows:
            return 0
        itemsize = numpy_dtype(self.dtype).itemsize
        dictionary = self._dictionary
        mean_text = (
            sum(map(len, dictionary)) / len(dictionary)
            if dictionary is not None and len(dictionary)
            else 0.0
        )
        total = 0.0
        for (tag, _, length), block in zip(self._blocks, self.stats):
            rows = block.row_count
            if block.null_count:
                total += rows
            if self.dtype != DataType.STRING:
                total += itemsize * rows
            elif tag == "dict":
                total += rows * (itemsize + mean_text)
            else:  # rows + 1 int64 offsets, then the UTF-8 text
                total += length - 8
        return -int(-total // self.rows)

    def block_entry(self, index: int) -> list:
        """Block *index*'s header entry as written: ``[start, stop, min,
        max, nulls, enc, offset, length]``."""
        return self._entries[index]

    def block_payload(self, index: int) -> bytes:
        """Block *index*'s encoded payload bytes."""
        _, offset, length = self._blocks[index]
        return self._read(offset, length)

    def file_id(self) -> tuple[int, int]:
        """``(st_dev, st_ino)`` of the file this reader has open, which
        is the file it reads whatever names it has by now."""
        status = os.fstat(self._handle.fileno())
        return status.st_dev, status.st_ino

    def raw_bytes(self) -> bytes:
        """The segment as :func:`encode_segment` produced it, read from
        the file this reader has open."""
        data = os.pread(self._handle.fileno(), self.length, self.offset)
        if len(data) != self.length:
            raise StorageError(
                f"segment file cut short: {self.path} holds {len(data)} of "
                f"{self.length} bytes at offset {self.offset}"
            )
        return data

    def write_info(self) -> SegmentWriteInfo:
        """What :func:`write_segment` returned when it wrote this file,
        read back from the header (a ``dict`` block's codes are decoded
        for the text bytes its raw form would hold)."""
        encodings: dict[str, int] = {}
        payload_bytes = raw_payload_bytes = 0
        text_lengths: np.ndarray | None = None
        if self._dictionary is not None:
            text_lengths = np.array(
                [len(text.encode("utf-8")) for text in self._dictionary],
                dtype=np.int64,
            )
        for index, (tag, offset, length) in enumerate(self._blocks):
            rows = self.stats[index].row_count
            encodings[tag] = encodings.get(tag, 0) + 1
            payload_bytes += length
            if self.dtype != DataType.STRING:
                raw_payload_bytes += _raw_block_bytes(self.dtype, rows)
            elif tag == "dict" and text_lengths is not None:
                codes = decode_block_codes(self._read(offset, length), rows)
                raw_payload_bytes += _raw_block_bytes(
                    self.dtype, rows, int(text_lengths[codes].sum())
                )
            else:  # a raw string block is its own raw form
                raw_payload_bytes += length
        return SegmentWriteInfo(
            bytes_written=self.length,
            rows=self.rows,
            encodings=encodings,
            payload_bytes=payload_bytes,
            raw_payload_bytes=raw_payload_bytes,
        )

    def decode_block(self, index: int) -> ColumnVector:
        """Decode block *index* into a column vector (validity applied)."""
        return self.decode_run(index, index)

    def decode_run(self, first: int, last: int) -> ColumnVector:
        """Decode blocks *first* … *last* (inclusive) into one vector.

        One read fetches the whole run and every block decodes straight
        into its rows of one output array.  Neighbouring ``for`` blocks
        of one shape and bit width — a dense column's full blocks —
        decode together in one 2-D pass
        (:func:`~repro.core.compression.decode_blocks_for`), and so do
        neighbouring ``bp`` blocks; the two tags never share a pass.
        """
        start, stop = self.stats[first].start, self.stats[last].stop
        lo = self._blocks[first][1]
        _, offset, length = self._blocks[last]
        data = memoryview(self._read(lo, offset + length - lo))
        values = np.empty(stop - start, dtype=numpy_dtype(self.dtype))
        index = first
        while index <= last:
            tag, offset, length = self._blocks[index]
            block = self.stats[index]
            at = offset - lo
            end = index + 1
            try:
                if tag in _GROUP_DECODERS and self.dtype in _INT_PHYSICAL:
                    end = self._for_group_end(data, lo, index, last)
                    rows = end - index
                    out = values[block.start - start :][: rows * block.row_count]
                    _GROUP_DECODERS[tag](
                        data[at : at + rows * length],
                        block.row_count,
                        rows,
                        out=out.reshape(rows, block.row_count),
                    )
                else:
                    values[block.start - start : block.stop - start] = (
                        self._decode_payload(
                            tag, data[at : at + length], block.row_count
                        )
                    )
            except StorageError as exc:
                raise StorageError(
                    f"corrupt block {index} of {self.path}: {exc}"
                ) from exc
            index = end
        validity = (
            self.validity[start:stop] if self.validity is not None else None
        )
        return ColumnVector(self.dtype, values, validity)

    def _for_group_end(
        self, data: memoryview, lo: int, index: int, last: int
    ) -> int:
        """End (exclusive) of the blocks from *index* that decode as one
        2-D pass: back to back on disk, same tag, rows, bytes and width."""
        tag, offset, length = self._blocks[index]
        count = self.stats[index].row_count
        width = for_block_width(data, offset - lo)
        end = index + 1
        while end <= min(last, index + _FOR_GROUP_BLOCKS - 1):
            offset += length
            if (
                self._blocks[end] != (tag, offset, length)
                or self.stats[end].row_count != count
                or for_block_width(data, offset - lo) != width
            ):
                break
            end += 1
        return end

    def _decode_payload(
        self, tag: str, data: memoryview, count: int
    ) -> np.ndarray:
        """The *count* values one block payload holds (``for`` and
        ``bp`` aside)."""
        if tag == "raw":
            if self.dtype == DataType.STRING:
                return _decode_raw_strings(data, count)
            dtype = numpy_dtype(self.dtype)
            if len(data) < dtype.itemsize * count:
                raise StorageError(f"raw block cut short: {len(data)} bytes")
            return np.frombuffer(data, dtype=dtype, count=count)
        if self.dtype in _INT_PHYSICAL:
            if tag == "rle":
                return decode_block_rle(data, count)
            if tag == "pfor":
                return decode_block_pfor(data, count)
        if tag == "dict" and self._dictionary is not None:
            codes = decode_block_codes(data, count)
            if count and int(codes.max()) >= len(self._dictionary):
                raise StorageError("dictionary code out of range")
            return self._dictionary[codes]
        raise StorageError(
            f"block encoding {tag!r} cannot hold a {self.dtype.name} column"
        )

    def read_all(self) -> ColumnVector:
        """Materialize the whole segment as one column vector."""
        if not self.stats:
            return ColumnVector.empty(self.dtype)
        return self.decode_run(0, self.block_count - 1)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def _decode_raw_strings(data: bytes | memoryview, count: int) -> np.ndarray:
    """*count* strings from an ``int64`` offsets array plus a UTF-8 pool."""
    if count < 0 or len(data) < 8 * (count + 1):
        raise StorageError(f"string offsets cut short: {len(data)} bytes")
    offsets = np.frombuffer(data, dtype=np.int64, count=count + 1)
    pool = data[8 * (count + 1) :]
    if (
        offsets[0] < 0
        or offsets[-1] > len(pool)
        or (offsets[1:] < offsets[:-1]).any()
    ):
        raise StorageError("string offsets out of range or order")
    values = np.empty(count, dtype=object)
    bounds = offsets.tolist()
    try:
        for position in range(count):
            values[position] = str(
                pool[bounds[position] : bounds[position + 1]], "utf-8"
            )
    except UnicodeDecodeError as exc:
        raise StorageError(f"string pool is not UTF-8: {exc}") from exc
    return values


#: The widths a log column stores INT64 and DATE values at, narrowest
#: first, each with its range: the first that holds the column's min
#: and max is taken.
_LOG_INT_WIDTHS = tuple(
    (np.dtype(f"<i{width}"), -(1 << (8 * width - 1)), (1 << (8 * width - 1)) - 1)
    for width in (1, 2, 4, 8)
)


def encode_log_column(column: ColumnVector) -> tuple[int, list]:
    """*column* as a log record stores it: its value width in bytes (0
    for STRING) and the buffers that follow one another in the record —
    the packed validity bits when it has any, then its values.

    INT64 and DATE values take the narrowest of 1, 2, 4 or 8 bytes that
    holds their min and max; FLOAT64 is stored bit for bit, BOOL as one
    byte a value, STRING as a raw string block (int64 offsets, then the
    UTF-8 text).  Values under a NULL are stored as they are.
    """
    values = column.values
    buffers: list = []
    if column.validity is not None:
        buffers.append(np.packbits(column.validity))
    if column.dtype == DataType.STRING:
        buffers.append(_raw_string_payload([text.encode("utf-8") for text in values]))
        return 0, buffers
    if column.dtype in _INT_PHYSICAL and len(values):
        low, high = int(values.min()), int(values.max())
        for dtype, smallest, largest in _LOG_INT_WIDTHS:
            if smallest <= low and high <= largest:
                values = values.astype(dtype, copy=False)
                break
    buffers.append(np.ascontiguousarray(values))
    return values.dtype.itemsize, buffers


def decode_log_column(
    dtype: DataType,
    width: int,
    nullable: bool,
    count: int,
    data: bytes,
    offset: int,
) -> tuple[ColumnVector, int]:
    """The column :func:`encode_log_column` wrote at *offset* of *data*
    (*count* values, *width* bytes each), and the offset after it.

    Fixed-width values are a view of *data* (widened when stored
    narrow); raises :class:`StorageError` when *data* is cut short.
    """
    validity: np.ndarray | None = None
    if nullable:
        size = (count + 7) // 8
        bits = np.frombuffer(data, dtype=np.uint8, count=size, offset=offset)
        validity = np.unpackbits(bits, count=count).view(np.bool_)
        offset += size
    if dtype == DataType.STRING:
        if width or len(data) < offset + 8 * (count + 1):
            raise StorageError(f"string column cut short at byte {offset}")
        offsets = np.frombuffer(data, dtype=np.int64, count=count + 1, offset=offset)
        end = offset + 8 * (count + 1) + int(offsets[-1])
        values = _decode_raw_strings(memoryview(data)[offset:end], count)
        return ColumnVector(dtype, values, validity), end
    physical = numpy_dtype(dtype)
    stored = np.dtype(f"<i{width}") if dtype in _INT_PHYSICAL else physical
    if stored.itemsize != width or len(data) < offset + width * count:
        raise StorageError(f"{dtype.name} column of width {width} cut short")
    values = np.frombuffer(data, dtype=stored, count=count, offset=offset)
    return (
        ColumnVector(dtype, values.astype(physical, copy=False), validity),
        offset + width * count,
    )


def open_segment(
    path: str | os.PathLike, offset: int = 0, length: int | None = None
) -> SegmentReader:
    """Open a segment for per-block access."""
    return SegmentReader(path, offset, length)


def read_segment(path: str | os.PathLike) -> tuple[ColumnVector, list[BlockStats]]:
    """Load a segment file back into a column plus its block sketches.

    Eager: every block is decoded (use :func:`open_segment` for lazy
    access).
    """
    reader = SegmentReader(path)
    try:
        return reader.read_all(), reader.stats
    finally:
        reader.close()
