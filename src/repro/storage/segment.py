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

Segments are immutable once written: a checkpoint writes a fresh
generation of files and the manifest flips to it atomically.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

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
    pick_int_block_encoding,
)
from repro.errors import StorageError
from repro.storage.blocks import DEFAULT_BLOCK_SIZE, BlockStats, compute_block_stats
from repro.storage.column import ColumnVector
from repro.types import DataType
from repro.types.datatypes import numpy_dtype

_MAGIC = b"RSEG2\n"
#: The single-buffer predecessor format; rejected by name, never read.
_MAGIC_UNSUPPORTED = b"RSEG1\n"

#: Dtypes whose physical values are int64 (eligible for int codecs).
_INT_PHYSICAL = frozenset({DataType.INT64, DataType.DATE})

#: ``write_segment`` encoding modes: checkpoints always write ``auto``;
#: ``raw`` is the uncompressed floor the codec tests compare against.
ENCODING_MODES = ("auto", "raw")

#: Most ``for`` or ``bp`` blocks one 2-D decode pass takes: past a few
#: blocks the per-call overhead is already spread thin, and the pass's
#: temporaries (a handful of arrays the size of its output) stay
#: cache-sized.
_FOR_GROUP_BLOCKS = 16

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

    @property
    def encoded_ratio(self) -> float:
        if self.raw_payload_bytes <= 0:
            return 1.0
        return self.payload_bytes / self.raw_payload_bytes


def _raw_fixed_payload(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values).tobytes()


def _raw_string_payload(pieces: list[bytes]) -> bytes:
    offsets = np.zeros(len(pieces) + 1, dtype=np.int64)
    np.cumsum([len(piece) for piece in pieces], out=offsets[1:])
    return offsets.tobytes() + b"".join(pieces)


def write_segment(
    path: str | os.PathLike,
    column: ColumnVector,
    block_size: int = DEFAULT_BLOCK_SIZE,
    *,
    sync: bool = True,
    encoding: str = "auto",
    patch_rowids: np.ndarray | None = None,
) -> SegmentWriteInfo:
    """Write *column* as an RSEG2 segment file at *path*.

    ``encoding="auto"`` (what a checkpoint writes) runs the per-block
    cost-based picker; ``encoding="raw"`` forces raw blocks.
    *patch_rowids* are the partition-local rowids of the column's NSC
    PatchIndex patches: blocks containing them may use the patch-aware
    ``pfor`` codec, storing those rows verbatim.

    The file is written to a temporary sibling and renamed into place so
    a crash mid-write never leaves a torn segment behind a manifest.
    """
    if encoding not in ENCODING_MODES:
        raise StorageError(f"unknown segment encoding mode: {encoding!r}")
    path = Path(path)
    stats = compute_block_stats(column, block_size)
    rows = len(column)
    validity = column.validity

    patch_positions: np.ndarray | None = None
    if patch_rowids is not None and len(patch_rowids):
        patch_positions = np.unique(
            np.asarray(patch_rowids, dtype=np.int64)
        )

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
        pieces_by_block = [
            pieces[block.start : block.stop] for block in stats
        ]
        if encoding == "auto" and rows:
            values = np.empty(rows, dtype=object)
            for position, text in enumerate(physical):
                values[position] = text
            unique, codes, width = build_string_dictionary(values)
            pool = b"".join(text.encode("utf-8") for text in unique)
            offsets = np.zeros(len(unique) + 1, dtype=np.int64)
            np.cumsum([len(u.encode("utf-8")) for u in unique], out=offsets[1:])
            dict_size = len(offsets.tobytes()) + len(pool) + sum(
                1 + (block.row_count * width + 7) // 8 for block in stats
            )
            raw_size = sum(
                8 * (block.row_count + 1) for block in stats
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
    for block_index, block in enumerate(stats):
        values = column.values[block.start : block.stop]
        if column.dtype == DataType.STRING:
            raw_cost = 8 * (block.row_count + 1) + sum(
                len(piece) for piece in pieces_by_block[block_index]
            )
            if dict_codes is not None:
                tag = "dict"
                payload = encode_block_codes(
                    dict_codes[block.start : block.stop], dict_width
                )
            else:
                tag = "raw"
                payload = _raw_string_payload(pieces_by_block[block_index])
        else:
            raw_cost = values.dtype.itemsize * block.row_count
            tag, encoded = "raw", None
            if encoding == "auto" and column.dtype in _INT_PHYSICAL:
                exceptions: np.ndarray | None = None
                local: list[np.ndarray] = []
                if patch_positions is not None:
                    inside = patch_positions[
                        (patch_positions >= block.start)
                        & (patch_positions < block.stop)
                    ]
                    if len(inside):
                        local.append(inside - block.start)
                if validity is not None:
                    nulls = np.flatnonzero(
                        ~validity[block.start : block.stop]
                    )
                    if len(nulls):
                        local.append(nulls.astype(np.int64))
                if local:
                    exceptions = np.concatenate(local)
                tag, encoded = pick_int_block_encoding(
                    values, exceptions, stats=block
                )
            payload = (
                encoded if encoded is not None else _raw_fixed_payload(values)
            )
        block_entries.append(
            [
                block.start,
                block.stop,
                _jsonable_stat(block.minimum),
                _jsonable_stat(block.maximum),
                block.null_count,
                tag,
                offset,
                len(payload),
            ]
        )
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

    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(header_line)
        handle.write(dict_payload)
        for payload in block_payloads:
            handle.write(payload)
        handle.write(validity_bytes)
        handle.flush()
        if sync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    return SegmentWriteInfo(
        bytes_written=len(_MAGIC) + len(header_line) + payload_len,
        rows=rows,
        encodings=encodings,
        payload_bytes=payload_bytes,
        raw_payload_bytes=raw_payload_bytes,
    )


def _parse_stats(header: dict) -> list[BlockStats]:
    return [
        BlockStats(int(entry[0]), int(entry[1]), entry[2], entry[3], int(entry[4]))
        for entry in header["blocks"]
    ]


class SegmentReader:
    """Random per-block access to one segment file.

    Blocks decode independently: :meth:`decode_block` reads only that
    block's payload bytes (via ``os.pread`` on a shared handle) and
    decodes it.
    """

    #: Segment format version read (``RSEG<version>``).
    version = 2

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._handle = open(self.path, "rb")
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
        self._dictionary: np.ndarray | None = None
        self.validity: np.ndarray | None = None
        try:
            self._open_payload(header)
        except StorageError:
            self._handle.close()
            raise

    def _open_payload(self, header: dict) -> None:
        """Block directory, validity and dictionary."""
        self.encodings = [str(entry[5]) for entry in header["blocks"]]
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


def open_segment(path: str | os.PathLike) -> SegmentReader:
    """Open a segment for per-block access."""
    return SegmentReader(path)


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
