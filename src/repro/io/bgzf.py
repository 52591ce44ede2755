"""BGZF: blocked GNU zip format, the container underneath BAM.

A BGZF file is a concatenation of standalone gzip members ("blocks"),
each at most 64 KiB of uncompressed payload, with the *compressed*
block size recorded in a gzip extra subfield (``BC``).  Because each
block is independently decompressible, a reader can seek to any block
boundary -- this is what makes per-thread BAM readers (the paper's
OpenMP design) possible without coordination.

Virtual offsets follow the htslib convention::

    voffset = compressed_block_start << 16 | offset_within_block

The module implements a serial reader with ``seek``/``tell`` on
virtual offsets and a private LRU of decompressed blocks, and a
writer that emits spec-compliant blocks plus the 28-byte EOF sentinel
block.  The reader requires that sentinel (any empty last block): a
stream whose last block holds data was cut short.  Because every
block is an independent deflate stream, the writer can deflate in a
pool (``compress_threads=N``) while committing blocks strictly in
submission order, so its output is bit-identical to the serial
writer's.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import BinaryIO, Deque, List, Optional, Tuple, Union

from repro.cachesim.lru import LruCache
from repro.io.errors import FormatError

__all__ = [
    "BgzfReader",
    "BgzfWriter",
    "BGZF_EOF",
    "make_virtual_offset",
    "split_virtual_offset",
    "block_offsets",
]

PathOrFile = Union[str, os.PathLike, BinaryIO]

#: Maximum uncompressed payload per block (htslib uses 64 KiB minus
#: worst-case deflate expansion headroom).
MAX_BLOCK_DATA = 65280

#: The canonical 28-byte BGZF EOF marker: an empty block.
BGZF_EOF = bytes.fromhex(
    "1f8b08040000000000ff0600424302001b0003000000000000000000"
)

# Base gzip header (12 bytes: magic, mtime, XFL, OS, XLEN) followed by
# the 6-byte BC extra subfield (SI1, SI2, SLEN=2, BSIZE).
_FULL_HEADER_FMT = "<4BIBBHBBHH"
_HEADER_SIZE = 12


def make_virtual_offset(block_start: int, within: int) -> int:
    """Pack a (compressed offset, intra-block offset) pair.

    Raises:
        ValueError: if ``within`` does not fit in 16 bits or either
            component is negative.
    """
    if not (0 <= within < 1 << 16):
        raise ValueError(f"within-block offset {within} out of range")
    if block_start < 0:
        raise ValueError("negative block offset")
    return (block_start << 16) | within


def split_virtual_offset(voffset: int) -> Tuple[int, int]:
    """Unpack a virtual offset into ``(block_start, within)``."""
    return voffset >> 16, voffset & 0xFFFF


class BgzfWriter:
    """Streaming BGZF compressor, optionally deflating in a pool.

    Data written via :meth:`write` is buffered and flushed as
    independent gzip blocks of at most :data:`MAX_BLOCK_DATA` bytes.
    :meth:`tell` returns the virtual offset of the next byte, so callers
    can record seek points while writing (BAM indexing relies on this).

    With ``compress_threads=N`` the deflate work runs on a pool of N
    threads (zlib releases the GIL), but finished blocks are committed
    to the stream strictly in submission order, so the output bytes
    are **bit-identical** to the serial writer's for the same input
    and level.  ``tell`` drains pending blocks first, since a virtual
    offset needs every prior block's compressed size.

    Args:
        dest: path or writable binary file object.
        compresslevel: zlib level (0-9).
        compress_threads: deflate pool size; ``0`` (default) compresses
            inline on the caller's thread, exactly the historical
            serial writer.
        inflight_blocks: pending compressed-but-uncommitted block
            budget (default ``2 * compress_threads``); the writer
            blocks on the oldest future beyond it, bounding buffered
            memory at ``inflight_blocks * 64 KiB`` plus pool inputs.

    Raises:
        ValueError: if ``compress_threads`` is negative or
            ``inflight_blocks`` is not positive.
    """

    def __init__(
        self,
        dest: PathOrFile,
        compresslevel: int = 6,
        *,
        compress_threads: int = 0,
        inflight_blocks: Optional[int] = None,
    ) -> None:
        if compress_threads < 0:
            raise ValueError(
                f"compress_threads must be >= 0, got {compress_threads}"
            )
        if hasattr(dest, "write"):
            self._handle: BinaryIO = dest  # type: ignore[assignment]
            self._owned = False
        else:
            self._handle = open(dest, "wb")
            self._owned = True
        self._buffer = bytearray()
        self._block_start = 0
        self._compresslevel = compresslevel
        self._closed = False
        #: number of blocks emitted (instrumentation for the tracer)
        self.blocks_written = 0
        #: deflate pool size (0 = serial)
        self.compress_threads = compress_threads
        #: deepest pending-commit queue observed (pool telemetry)
        self.pool_depth_peak = 0
        self._pool: Optional[ThreadPoolExecutor] = None
        self._futures: Deque["Future[bytes]"] = deque()
        if compress_threads:
            if inflight_blocks is None:
                inflight_blocks = 2 * compress_threads
            if inflight_blocks <= 0:
                raise ValueError(
                    f"inflight_blocks must be positive, got {inflight_blocks}"
                )
            self._inflight = inflight_blocks
            self._pool = ThreadPoolExecutor(
                max_workers=compress_threads,
                thread_name_prefix="bgzf-deflate",
            )

    def write(self, data: bytes) -> int:
        """Buffer ``data``, flushing complete blocks as they fill."""
        if self._closed:
            raise ValueError("write to closed BgzfWriter")
        self._buffer.extend(data)
        while len(self._buffer) >= MAX_BLOCK_DATA:
            self._flush_block(bytes(self._buffer[:MAX_BLOCK_DATA]))
            del self._buffer[:MAX_BLOCK_DATA]
        return len(data)

    def tell(self) -> int:
        """Virtual offset of the next byte to be written.

        Drains any blocks still deflating in the pool first: the
        compressed start of the current block is the sum of every
        committed block's size.
        """
        self._drain()
        return make_virtual_offset(self._block_start, len(self._buffer))

    def flush(self) -> None:
        """Flush buffered data as a (possibly short) block and commit
        every pending pool block to the stream."""
        if self._buffer:
            self._flush_block(bytes(self._buffer))
            self._buffer.clear()
        self._drain()

    @staticmethod
    def _deflate_block(data: bytes, compresslevel: int) -> bytes:
        """Compress one block payload into its complete BGZF member.

        Pure function of ``(data, compresslevel)`` -- safe on any pool
        thread, and deterministic, which is what makes the parallel
        writer bit-identical to the serial one.
        """
        comp = zlib.compressobj(
            compresslevel, zlib.DEFLATED, -15, zlib.DEF_MEM_LEVEL, 0
        )
        payload = comp.compress(data) + comp.flush()
        # Block layout: 12-byte base header, 6-byte BC extra subfield,
        # deflate payload, CRC32, ISIZE.  BSIZE field stores total-1.
        total = _HEADER_SIZE + 6 + len(payload) + 8
        header = struct.pack(
            _FULL_HEADER_FMT,
            0x1F,
            0x8B,
            0x08,
            0x04,  # magic + deflate + FEXTRA
            0,  # mtime
            0,  # XFL
            0xFF,  # OS = unknown
            6,  # XLEN
            ord("B"),
            ord("C"),
            2,  # SLEN
            total - 1,  # BSIZE
        )
        crc = zlib.crc32(data) & 0xFFFFFFFF
        return header + payload + struct.pack("<II", crc, len(data))

    def _commit(self, block: bytes) -> None:
        """Append one finished block to the stream, in order."""
        self._handle.write(block)
        self._block_start += len(block)
        self.blocks_written += 1

    def _drain(self) -> None:
        """Commit every pending pool block, oldest first."""
        while self._futures:
            self._commit(self._futures.popleft().result())

    def _flush_block(self, data: bytes) -> None:
        if self._pool is None:
            self._commit(self._deflate_block(data, self._compresslevel))
            return
        self._futures.append(
            self._pool.submit(self._deflate_block, data, self._compresslevel)
        )
        if len(self._futures) > self.pool_depth_peak:
            self.pool_depth_peak = len(self._futures)
        # Beyond the in-flight budget, block on the oldest future --
        # commits stay strictly ordered and memory stays bounded.
        while len(self._futures) > self._inflight:
            self._commit(self._futures.popleft().result())

    def close(self) -> None:
        """Flush, append the EOF sentinel and close the stream."""
        if self._closed:
            return
        self.flush()
        self._handle.write(BGZF_EOF)
        if self._pool is not None:
            self._pool.shutdown(wait=False)
        if self._owned:
            self._handle.close()
        self._closed = True

    def __enter__(self) -> "BgzfWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BgzfReader:
    """Random-access BGZF decompressor with an LRU block buffer.

    Supports sequential :meth:`read` and virtual-offset
    :meth:`seek`/:meth:`tell`.  Up to ``cache_blocks`` decompressed
    blocks stay resident in a private least-recently-used buffer, so a
    seek back into a recently read block skips zlib entirely -- the
    behaviour bamnostic's ``_buffers`` LruDict gives htslib-style
    readers, and what makes repeated or overlapping region queries
    cache-friendly.  The default of one block reproduces the classic
    single-block-cache reader exactly.

    Args:
        source: path or binary file object positioned at a BGZF stream.
        cache_blocks: decompressed blocks kept resident (positive; each
            holds at most 64 KiB, so memory is bounded by
            ``64 KiB * cache_blocks``).

    Raises:
        ValueError: if ``cache_blocks`` is not positive.
        FormatError: if a block read (the first one here, any other on
            a later read or seek) is malformed, or the stream ends
            without its EOF marker block; the message names the
            compressed offset, and the file when one was opened by
            path.
    """

    def __init__(self, source: PathOrFile, cache_blocks: int = 1) -> None:
        #: decompressed-block store: compressed offset -> (data, size)
        self._buffers: LruCache[int, Tuple[bytes, int]] = LruCache(
            cache_blocks
        )
        #: the file this reader opened (``None`` for a caller's file
        #: object); format errors name it
        self._path: Optional[str] = None
        if hasattr(source, "read"):
            self._handle: BinaryIO = source  # type: ignore[assignment]
            self._owned = False
        else:
            self._path = os.fspath(source)
            self._handle = open(source, "rb")
            self._owned = True
        self._block_start = 0  # compressed offset of current block
        self._block_data = b""
        self._within = 0
        self._next_block = 0  # compressed offset of the block after the current
        self._eof = False
        #: compressed offset known to be at/past physical EOF (probes
        #: beyond it short-circuit: no file read, no cache traffic)
        self._known_eof: Optional[int] = None
        #: number of blocks decompressed (instrumentation for the tracer;
        #: cache hits do not re-count)
        self.blocks_read = 0
        #: cumulative seconds spent in zlib inflation (tracer: the
        #: "decompress" category of the Figure 2 reproduction)
        self.time_decompress = 0.0
        #: block loads served from the LRU buffer
        self.cache_hits = 0
        #: block loads that inflated
        self.cache_misses = 0
        self._load_block(0)

    # -- cache instrumentation ---------------------------------------------

    @property
    def cache_blocks(self) -> int:
        """Capacity of the decompressed-block LRU buffer."""
        return self._buffers.capacity

    @property
    def cache_evictions(self) -> int:
        """Blocks dropped from the LRU buffer to make room."""
        return self._buffers.evictions

    # -- block machinery ---------------------------------------------------

    def _format_error(self, offset: int, what: str) -> FormatError:
        """A :class:`~repro.io.errors.FormatError` naming the block's
        compressed offset, and the file when this reader opened it."""
        where = f"BGZF block at compressed offset {offset}"
        if self._path is not None:
            where = f"{self._path}: {where}"
        return FormatError(f"{where}: {what}")

    def _read_block_at(self, offset: int) -> Tuple[bytes, int]:
        """Read and inflate the block at compressed ``offset``.

        Returns ``(data, total_compressed_size)``; ``(b"", 0)`` at
        physical EOF.

        Raises:
            FormatError: if the bytes at ``offset`` are not a valid
                BGZF block (bad magic, missing BC subfield, truncation,
                corrupt deflate data) or fail the ISIZE/CRC check.
        """
        self._handle.seek(offset)
        header = self._handle.read(_HEADER_SIZE)
        if len(header) == 0:
            return b"", 0
        if len(header) < _HEADER_SIZE:
            raise self._format_error(offset, "truncated block header")
        magic = header[:4]
        if magic[:2] != b"\x1f\x8b":
            raise self._format_error(offset, f"bad gzip magic {magic[:2]!r}")
        if magic[2] != 8 or not magic[3] & 0x04:
            raise self._format_error(
                offset, "gzip member lacks FEXTRA; not a BGZF file"
            )
        xlen = struct.unpack("<H", header[10:12])[0]
        extra = self._handle.read(xlen)
        if len(extra) < xlen:
            raise self._format_error(offset, "truncated extra field")
        bsize = None
        i = 0
        while i + 4 <= len(extra):
            si1, si2, slen = extra[i], extra[i + 1], struct.unpack(
                "<H", extra[i + 2 : i + 4]
            )[0]
            if (si1, si2, slen) == (66, 67, 2) and i + 6 <= xlen:  # "BC"
                bsize = struct.unpack("<H", extra[i + 4 : i + 6])[0] + 1
            i += 4 + slen
        if bsize is None:
            raise self._format_error(offset, "BC subfield missing")
        payload_len = bsize - _HEADER_SIZE - xlen - 8
        if payload_len < 0:
            raise self._format_error(
                offset, f"block size {bsize} is smaller than its header"
            )
        payload = self._handle.read(payload_len)
        crc_isize = self._handle.read(8)
        if len(payload) < payload_len or len(crc_isize) < 8:
            raise self._format_error(offset, "truncated block payload")
        t0 = time.perf_counter()
        try:
            data = zlib.decompress(payload, -15)
        except zlib.error as exc:
            raise self._format_error(
                offset, f"corrupt deflate data ({exc})"
            ) from None
        self.time_decompress += time.perf_counter() - t0
        crc, isize = struct.unpack("<II", crc_isize)
        if len(data) != isize:
            raise self._format_error(
                offset, f"ISIZE mismatch: header says {isize}, got {len(data)}"
            )
        if (zlib.crc32(data) & 0xFFFFFFFF) != crc:
            raise self._format_error(offset, "CRC mismatch")
        self.blocks_read += 1
        return data, bsize

    def _cached_block_at(self, offset: int) -> Tuple[bytes, int]:
        """The block at ``offset`` through the LRU buffer.

        A resident block is returned without touching the file or
        zlib; a miss inflates and inserts.  EOF probes (size 0) are
        never cached and never count as hits or misses -- once
        physical EOF is discovered, repeat probes short-circuit
        entirely.
        """
        if self._known_eof is not None and offset >= self._known_eof:
            return b"", 0
        cached = self._buffers.get(offset)
        if cached is not None:
            self.cache_hits += 1
            return cached
        data, size = self._read_block_at(offset)
        if size == 0:
            self._known_eof = offset
            return data, size
        self.cache_misses += 1
        self._buffers.put(offset, (data, size))
        return data, size

    def _load_block(self, offset: int) -> None:
        data, size = self._cached_block_at(offset)
        self._block_start = offset
        self._block_data = data
        self._within = 0
        self._next_block = offset + size
        self._eof = size == 0 or (
            len(data) == 0 and size > 0 and self._nothing_after(offset + size)
        )

    def _nothing_after(self, offset: int) -> bool:
        """True when no bytes exist at compressed ``offset`` (used to
        classify an empty block as the trailing EOF sentinel vs a
        mid-file flush artefact)."""
        if self._known_eof is not None and offset >= self._known_eof:
            return True
        self._handle.seek(offset)
        if self._handle.read(1) == b"":
            self._known_eof = offset
            return True
        return False

    def _advance(self) -> bool:
        """Load the next non-empty block; False at physical EOF, which
        must follow an empty block (the EOF marker)."""
        while True:
            data, size = self._cached_block_at(self._next_block)
            if size == 0:
                if self._block_data:
                    raise self._format_error(
                        self._next_block, "no BGZF EOF marker: file truncated"
                    )
                self._eof = True
                return False
            self._block_start = self._next_block
            self._next_block += size
            self._block_data = data
            self._within = 0
            if data:
                return True
            # empty block (e.g. EOF sentinel mid-file after flush) - skip

    # -- public API ---------------------------------------------------------

    def read(self, n: int = -1) -> bytes:
        """Read up to ``n`` decompressed bytes (all remaining if < 0)."""
        chunks: List[bytes] = []
        remaining = n
        while remaining != 0:
            avail = len(self._block_data) - self._within
            if avail == 0:
                if self._eof or not self._advance():
                    break
                continue
            take = avail if remaining < 0 else min(avail, remaining)
            chunks.append(self._block_data[self._within : self._within + take])
            self._within += take
            if remaining > 0:
                remaining -= take
        return b"".join(chunks)

    def readexact(self, n: int) -> bytes:
        """Read exactly ``n`` bytes.

        Raises:
            EOFError: if fewer than ``n`` bytes remain.
        """
        data = self.read(n)
        if len(data) != n:
            raise EOFError(f"wanted {n} bytes, got {len(data)}")
        return data

    def tell(self) -> int:
        """Virtual offset of the next byte to be read."""
        if self._within == len(self._block_data) and not self._eof:
            # Normalise to the start of the next block so offsets are unique.
            return make_virtual_offset(self._next_block, 0)
        return make_virtual_offset(self._block_start, self._within)

    def seek(self, voffset: int) -> int:
        """Seek to a virtual offset; returns the (normalised) offset.

        Raises:
            FormatError: if the offset's block starts at or past the end
                of the file, or its within-block part exceeds the
                block's size; the message names the virtual offset, and
                the file when one was opened by path.
        """
        block_start, within = split_virtual_offset(voffset)
        if block_start != self._block_start or within > len(self._block_data):
            self._eof = False
            self._load_block(block_start)
            if self._next_block == block_start:
                raise self._format_error(
                    block_start, f"virtual offset {voffset} lies past the end of the file"
                )
            if within > len(self._block_data):
                raise self._format_error(
                    block_start,
                    f"virtual offset {voffset}: within-block offset {within} "
                    f"exceeds block size {len(self._block_data)}",
                )
        self._within = within
        return self.tell()

    def close(self) -> None:
        """Release the block buffer and the underlying handle (if
        owned)."""
        self._buffers.clear()
        if self._owned:
            self._handle.close()

    def __enter__(self) -> "BgzfReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def block_offsets(source: PathOrFile) -> List[int]:
    """Compressed-file offsets of every non-empty block.

    Used by the parallel runtime to hand disjoint block ranges to
    per-worker readers.
    """
    reader = BgzfReader(source)
    offsets: List[int] = []
    try:
        if reader._block_data:
            offsets.append(reader._block_start)
        while reader._advance():
            offsets.append(reader._block_start)
    finally:
        reader.close()
    return offsets
