"""Unit tests for the BGZF codec."""

import gzip
import io

import pytest

from repro.io import FormatError
from repro.io.bgzf import (
    BGZF_EOF,
    BgzfReader,
    BgzfWriter,
    block_offsets,
    make_virtual_offset,
    split_virtual_offset,
)


def roundtrip(payload: bytes) -> bytes:
    buf = io.BytesIO()
    with BgzfWriter(buf) as writer:
        writer.write(payload)
    buf.seek(0)
    with BgzfReader(buf) as reader:
        return reader.read()


class TestVirtualOffsets:
    def test_pack_unpack(self):
        v = make_virtual_offset(123456, 789)
        assert split_virtual_offset(v) == (123456, 789)

    def test_within_out_of_range_raises(self):
        with pytest.raises(ValueError):
            make_virtual_offset(0, 1 << 16)

    def test_negative_block_raises(self):
        with pytest.raises(ValueError):
            make_virtual_offset(-1, 0)


class TestRoundTrip:
    def test_small_payload(self):
        assert roundtrip(b"hello bgzf") == b"hello bgzf"

    def test_empty_payload(self):
        assert roundtrip(b"") == b""

    def test_multi_block_payload(self):
        payload = bytes(range(256)) * 1024  # 256 KiB -> 4+ blocks
        assert roundtrip(payload) == payload

    def test_exact_block_boundary(self):
        from repro.io.bgzf import MAX_BLOCK_DATA

        payload = b"x" * (2 * MAX_BLOCK_DATA)
        assert roundtrip(payload) == payload

    def test_incompressible_data(self):
        import random

        random.seed(0)
        payload = bytes(random.getrandbits(8) for _ in range(100_000))
        assert roundtrip(payload) == payload


class TestFormatCompliance:
    def test_output_is_valid_gzip(self):
        buf = io.BytesIO()
        with BgzfWriter(buf) as writer:
            writer.write(b"gzip compatible payload")
        # Standard gzip must be able to read a BGZF file (concatenated members).
        assert gzip.decompress(buf.getvalue()) == b"gzip compatible payload"

    def test_eof_marker_present(self):
        buf = io.BytesIO()
        with BgzfWriter(buf) as writer:
            writer.write(b"data")
        assert buf.getvalue().endswith(BGZF_EOF)

    def test_eof_marker_is_itself_valid_bgzf(self):
        reader = BgzfReader(io.BytesIO(BGZF_EOF))
        assert reader.read() == b""

    def test_non_bgzf_gzip_rejected(self):
        plain = gzip.compress(b"not bgzf")
        with pytest.raises(ValueError, match="FEXTRA|BC"):
            BgzfReader(io.BytesIO(plain))

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            BgzfReader(io.BytesIO(b"garbage data here"))

    def test_crc_corruption_detected(self):
        buf = io.BytesIO()
        with BgzfWriter(buf) as writer:
            writer.write(b"A" * 1000)
        raw = bytearray(buf.getvalue())
        # Flip a payload byte in the first block (after the 18-byte header).
        raw[25] ^= 0xFF
        with pytest.raises(FormatError):  # corrupt deflate or CRC mismatch
            BgzfReader(io.BytesIO(bytes(raw))).read()


class TestSeek:
    def test_seek_to_recorded_offset(self):
        buf = io.BytesIO()
        writer = BgzfWriter(buf)
        writer.write(b"A" * 1000)
        mark = writer.tell()
        writer.write(b"B" * 1000)
        writer.close()
        buf.seek(0)
        reader = BgzfReader(buf)
        reader.seek(mark)
        assert reader.read(5) == b"BBBBB"

    def test_seek_across_blocks(self):
        from repro.io.bgzf import MAX_BLOCK_DATA

        buf = io.BytesIO()
        writer = BgzfWriter(buf)
        writer.write(b"A" * MAX_BLOCK_DATA)
        mark = writer.tell()
        writer.write(b"C" * 10)
        writer.close()
        buf.seek(0)
        reader = BgzfReader(buf)
        assert reader.seek(mark) == reader.tell()
        assert reader.read() == b"C" * 10

    def test_tell_read_consistency(self):
        buf = io.BytesIO()
        with BgzfWriter(buf) as writer:
            writer.write(bytes(range(200)))
        buf.seek(0)
        reader = BgzfReader(buf)
        reader.read(100)
        mark = reader.tell()
        rest_a = reader.read()
        reader.seek(mark)
        rest_b = reader.read()
        assert rest_a == rest_b == bytes(range(100, 200))

    @pytest.mark.parametrize("within", [0, 5])
    def test_seek_past_end_of_file_raises(self, tmp_path, within):
        """A seek into a block at or past the end of the file (a BAM cut
        after its index was built) names the file and the offset."""
        raw = _bgzf_bytes(_random.Random(9).randbytes(100_000))
        cut = block_offsets(io.BytesIO(raw))[1]
        path = tmp_path / "cut.bgz"
        path.write_bytes(raw[:cut])
        for block in (cut, cut + 1000):
            voffset = make_virtual_offset(block, within)
            with BgzfReader(str(path)) as reader:
                with pytest.raises(FormatError, match="past the end of the file") as info:
                    reader.seek(voffset)
            assert str(info.value).startswith(f"{path}: ")
            assert f"virtual offset {voffset} " in str(info.value)

    def test_seek_past_block_size_raises(self, tmp_path):
        raw = _bgzf_bytes(b"A" * MAX_BLOCK_DATA + b"B" * 1000)
        second = block_offsets(io.BytesIO(raw))[1]
        path = tmp_path / "short.bgz"
        path.write_bytes(raw)
        for block, size in ((0, MAX_BLOCK_DATA), (second, 1000)):
            voffset = make_virtual_offset(block, size + 1)
            with BgzfReader(str(path)) as reader:
                with pytest.raises(FormatError, match=f"exceeds block size {size}") as info:
                    reader.seek(voffset)
            assert str(info.value).startswith(f"{path}: ")
            assert f"virtual offset {voffset}: " in str(info.value)

    def test_seek_to_eof_marker_and_end_of_stream(self):
        payload = b"C" * 5000
        raw = _bgzf_bytes(payload)
        marker = make_virtual_offset(len(raw) - len(BGZF_EOF), 0)
        with BgzfReader(io.BytesIO(raw)) as reader:
            assert reader.read() == payload
            end = reader.tell()
            reader.seek(0)
            assert reader.seek(end) == end
            assert reader.read() == b""
        with BgzfReader(io.BytesIO(raw)) as reader:
            reader.seek(marker)
            assert reader.read() == b""

    def test_readexact_raises_at_eof(self):
        buf = io.BytesIO()
        with BgzfWriter(buf) as writer:
            writer.write(b"xy")
        buf.seek(0)
        reader = BgzfReader(buf)
        with pytest.raises(EOFError):
            reader.readexact(10)


class TestBlockOffsets:
    def test_offsets_enumerate_blocks(self):
        from repro.io.bgzf import MAX_BLOCK_DATA

        buf = io.BytesIO()
        with BgzfWriter(buf) as writer:
            writer.write(b"z" * int(MAX_BLOCK_DATA * 2.5))
        buf.seek(0)
        offsets = block_offsets(buf)
        assert len(offsets) == 3
        assert offsets[0] == 0
        assert offsets == sorted(offsets)

    def test_blocks_read_counter(self):
        buf = io.BytesIO()
        with BgzfWriter(buf) as writer:
            writer.write(b"q" * 200_000)
        buf.seek(0)
        reader = BgzfReader(buf)
        reader.read()
        assert reader.blocks_read >= 3
        assert reader.time_decompress > 0.0


class TestBlockCache:
    """The decompressed-block LRU behind seek-heavy region queries."""

    @staticmethod
    def _multi_block_stream(n_blocks=4, block_payload=60_000):
        """A BGZF stream of several full blocks; returns (buffer,
        payload)."""
        payload = bytes(
            (i * 7 + j) & 0xFF
            for i in range(n_blocks)
            for j in range(block_payload)
        )
        buf = io.BytesIO()
        with BgzfWriter(buf) as writer:
            writer.write(payload)
        buf.seek(0)
        return buf, payload

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            BgzfReader(io.BytesIO(BGZF_EOF), cache_blocks=0)

    def test_default_reader_counts_misses_only_forward(self):
        buf, payload = self._multi_block_stream()
        with BgzfReader(buf) as reader:
            assert reader.cache_blocks == 1
            assert reader.read() == payload
            # Forward streaming never revisits a block: all misses
            # (the trailing EOF-marker probe is a miss too, but only
            # real payload blocks count as read).
            assert reader.cache_hits == 0
            assert reader.blocks_read <= reader.cache_misses <= reader.blocks_read + 1

    def test_re_seek_hits_with_cache(self):
        buf, payload = self._multi_block_stream()
        offsets = block_offsets(buf)
        buf.seek(0)
        with BgzfReader(buf, cache_blocks=8) as reader:
            reader.read()  # cold pass inflates every block
            cold_blocks = reader.blocks_read
            for start in offsets[:3]:
                reader.seek(make_virtual_offset(start, 0))
                reader.read(1000)
            # Warm re-reads are served from the buffer: no new
            # inflation, three hits.
            assert reader.blocks_read == cold_blocks
            assert reader.cache_hits >= 3

    def test_single_block_cache_evicts_on_movement(self):
        buf, payload = self._multi_block_stream()
        offsets = block_offsets(buf)
        buf.seek(0)
        with BgzfReader(buf, cache_blocks=1) as reader:
            a = make_virtual_offset(offsets[0], 0)
            b = make_virtual_offset(offsets[1], 0)
            for voffset in (a, b, a, b):
                reader.seek(voffset)
                reader.read(10)
            # Capacity 1 ping-pong: every fetch after the first evicts.
            assert reader.cache_hits == 0
            assert reader.cache_evictions >= 2
            assert reader.blocks_read >= 4

    def test_cache_does_not_change_bytes(self):
        buf, payload = self._multi_block_stream()
        raw = buf.getvalue()
        plain = BgzfReader(io.BytesIO(raw)).read()
        cached_reader = BgzfReader(io.BytesIO(raw), cache_blocks=16)
        first = cached_reader.read()
        cached_reader.seek(0)
        second = cached_reader.read()
        assert plain == payload
        assert first == payload
        assert second == payload

    def test_eviction_bounds_residency(self):
        buf, _ = self._multi_block_stream(n_blocks=6)
        with BgzfReader(buf, cache_blocks=2) as reader:
            reader.read()
            # 6+ blocks streamed through a 2-slot buffer.
            assert reader.cache_evictions >= 4


# -- corrupt streams and the parallel writer ----------------------------------

import random as _random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.bgzf import MAX_BLOCK_DATA

THREAD_COUNTS = [0, 1, 2, 4]


def _bgzf_bytes(payload: bytes, level: int = 6) -> bytes:
    buf = io.BytesIO()
    with BgzfWriter(buf, compresslevel=level) as writer:
        writer.write(payload)
    return buf.getvalue()


class TestCorruptStreams:
    """Hypothesis: a damaged stream reads back as its original payload
    or raises a format error -- it never returns other bytes."""

    @given(
        payload=st.binary(min_size=1, max_size=200_000),
        mode=st.sampled_from(["truncate", "flip", "drop_eof"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_corrupt_stream_returns_payload_or_raises(self, payload, mode, seed):
        raw = bytearray(_bgzf_bytes(payload))
        rng = _random.Random(seed)
        if mode == "truncate":
            raw = raw[: rng.randint(1, len(raw) - 1)]
        elif mode == "flip":
            raw[rng.randrange(len(raw) - len(BGZF_EOF))] ^= 0xFF
        else:  # drop_eof
            raw = raw[: -len(BGZF_EOF)]
        try:
            with BgzfReader(io.BytesIO(bytes(raw)), cache_blocks=4) as reader:
                got = reader.read()
        except FormatError:
            return
        assert got == payload


class TestFormatErrors:
    """Every malformed block raises FormatError naming its compressed
    offset, and the file when the reader opened one by path."""

    @staticmethod
    def _damaged(damage):
        """A two-block stream with its second block damaged, and that
        block's compressed offset."""
        raw = bytearray(_bgzf_bytes(b"A" * MAX_BLOCK_DATA + b"B" * 1000))
        start = block_offsets(io.BytesIO(bytes(raw)))[1]
        bsize = int.from_bytes(raw[start + 16 : start + 18], "little") + 1
        if damage == "magic":
            raw[start] = 0
        elif damage == "fextra":
            raw[start + 3] = 0
        elif damage == "header":
            raw = raw[: start + 5]
        elif damage == "extra":
            raw = raw[: start + 14]
        elif damage == "bc":
            raw[start + 12] = ord("X")
        elif damage == "bsize":
            raw[start + 16 : start + 18] = (10).to_bytes(2, "little")
        elif damage == "payload":
            raw = raw[: start + 30]
        elif damage == "deflate":
            raw[start + 18] = 0x07  # BFINAL=1, BTYPE=11 (reserved)
        elif damage == "isize":
            raw[start + bsize - 4] ^= 0x01
        else:  # crc
            raw[start + bsize - 8] ^= 0x01
        return bytes(raw), start

    DAMAGES = [
        ("magic", "bad gzip magic"),
        ("fextra", "lacks FEXTRA"),
        ("header", "truncated block header"),
        ("extra", "truncated extra field"),
        ("bc", "BC subfield missing"),
        ("bsize", "smaller than its header"),
        ("payload", "truncated block payload"),
        ("deflate", "corrupt deflate data"),
        ("isize", "ISIZE mismatch"),
        ("crc", "CRC mismatch"),
    ]

    @pytest.mark.parametrize("damage, message", DAMAGES)
    def test_malformed_block_names_offset_and_path(
        self, tmp_path, damage, message
    ):
        raw, start = self._damaged(damage)
        path = tmp_path / "damaged.bgz"
        path.write_bytes(raw)
        where = f"BGZF block at compressed offset {start}: "
        cases = [(io.BytesIO(raw), where), (str(path), f"{path}: {where}")]
        for source, prefix in cases:
            with BgzfReader(source) as reader:
                with pytest.raises(FormatError, match=message) as info:
                    reader.read()
            assert str(info.value).startswith(prefix)


class TestEofMarker:
    """A stream must end with an empty block (the EOF marker): one cut
    where a block ends reads back short otherwise, with no error."""

    def test_cut_at_a_block_boundary_raises(self, tmp_path):
        payload = _random.Random(7).randbytes(100_000)
        raw = _bgzf_bytes(payload)
        cut = block_offsets(io.BytesIO(raw))[1]
        path = tmp_path / "cut.bgz"
        path.write_bytes(raw[:cut])
        where = f"BGZF block at compressed offset {cut}: "
        cases = [(io.BytesIO(raw[:cut]), where), (str(path), f"{path}: {where}")]
        for source, prefix in cases:
            with BgzfReader(source) as reader:
                with pytest.raises(FormatError, match="no BGZF EOF marker") as info:
                    reader.read()
            assert str(info.value).startswith(prefix)

    def test_empty_block_mid_stream_still_reads(self):
        payload = _random.Random(8).randbytes(100_000)
        raw = _bgzf_bytes(payload)
        mid = block_offsets(io.BytesIO(raw))[1]
        spliced = raw[:mid] + BGZF_EOF + raw[mid:]
        with BgzfReader(io.BytesIO(spliced)) as reader:
            assert reader.read() == payload

    def test_marker_only_and_empty_streams_read_empty(self):
        for raw in (BGZF_EOF, b""):
            with BgzfReader(io.BytesIO(raw)) as reader:
                assert reader.read() == b""


class TestParallelWriterFuzz:
    """Hypothesis: the pooled writer's bytes are bit-identical."""

    @given(
        payload=st.binary(max_size=300_000),
        threads=st.sampled_from(THREAD_COUNTS),
        chunk=st.integers(1, 100_000),
        level=st.sampled_from([1, 6, 9]),
    )
    @settings(max_examples=30, deadline=None)
    def test_bytes_identical_to_serial(self, payload, threads, chunk, level):
        expect = _bgzf_bytes(payload, level)
        buf = io.BytesIO()
        with BgzfWriter(
            buf, compresslevel=level, compress_threads=threads
        ) as writer:
            for i in range(0, len(payload), chunk):
                writer.write(payload[i : i + chunk])
        assert buf.getvalue() == expect

    @given(
        parts=st.lists(st.binary(max_size=80_000), max_size=5),
        threads=st.sampled_from(THREAD_COUNTS),
    )
    @settings(max_examples=20, deadline=None)
    def test_tell_matches_serial_mid_stream(self, parts, threads):
        serial_buf, pooled_buf = io.BytesIO(), io.BytesIO()
        serial = BgzfWriter(serial_buf)
        pooled = BgzfWriter(pooled_buf, compress_threads=threads)
        for part in parts:
            serial.write(part)
            pooled.write(part)
            assert pooled.tell() == serial.tell()
        serial.close()
        pooled.close()
        assert pooled_buf.getvalue() == serial_buf.getvalue()


class TestParallelWriterKnobs:
    def test_negative_threads_rejected(self):
        with pytest.raises(ValueError, match="compress_threads"):
            BgzfWriter(io.BytesIO(), compress_threads=-1)

    def test_non_positive_inflight_rejected(self):
        with pytest.raises(ValueError, match="inflight_blocks"):
            BgzfWriter(io.BytesIO(), compress_threads=2, inflight_blocks=0)

    def test_seek_marks_work_with_pool(self):
        buf = io.BytesIO()
        writer = BgzfWriter(buf, compress_threads=3)
        writer.write(b"A" * MAX_BLOCK_DATA)
        mark = writer.tell()
        writer.write(b"B" * 1000)
        writer.close()
        buf.seek(0)
        reader = BgzfReader(buf)
        reader.seek(mark)
        assert reader.read(5) == b"BBBBB"

    def test_pool_depth_peak_tracks_backlog(self):
        buf = io.BytesIO()
        with BgzfWriter(buf, compress_threads=2) as writer:
            writer.write(b"z" * (MAX_BLOCK_DATA * 6))
        assert writer.pool_depth_peak >= 1
        assert writer.blocks_written >= 6


class TestEofProbeRegression:
    """Repeated probes at physical EOF must neither populate the block
    cache nor skew hit/miss counters."""

    def test_probes_leave_counters_and_cache_alone(self):
        raw = _bgzf_bytes(bytes(range(256)) * 1024)
        with BgzfReader(io.BytesIO(raw), cache_blocks=8) as reader:
            assert reader.read() == bytes(range(256)) * 1024
            hits, misses = reader.cache_hits, reader.cache_misses
            blocks, evict = reader.blocks_read, reader.cache_evictions
            resident = len(reader._buffers)
            end = reader.tell()
            for _ in range(5):
                reader.seek(end)
                assert reader.read() == b""
            assert reader.cache_hits == hits
            assert reader.cache_misses == misses
            assert reader.blocks_read == blocks
            assert reader.cache_evictions == evict
            assert len(reader._buffers) == resident

    def test_probe_beyond_known_eof_short_circuits(self):
        raw = _bgzf_bytes(b"tiny")
        with BgzfReader(io.BytesIO(raw)) as reader:
            reader.read()
            probes = reader._cached_block_at(len(raw))
            assert probes == (b"", 0)
            again = reader._cached_block_at(len(raw) + 100)
            assert again == (b"", 0)
            assert reader.cache_misses == reader.blocks_read


class TestConstructorClosesFile:
    """A reader whose constructor fails closes the file it opened: no
    ``ResourceWarning`` is left for garbage collection."""

    @staticmethod
    def _assert_closed_on_failure(construct, match):
        import gc
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FormatError, match=match):
                construct()
            gc.collect()
        leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaked, [str(w.message) for w in leaked]

    def test_bgzf_reader_bad_first_block(self, tmp_path):
        raw = bytearray(_bgzf_bytes(b"A" * 1000))
        raw[18] = 0x07  # BFINAL=1, BTYPE=11 (reserved) in block 0
        path = tmp_path / "bad.bgzf"
        path.write_bytes(bytes(raw))
        self._assert_closed_on_failure(lambda: BgzfReader(str(path)), "corrupt deflate")

    def test_bam_reader_bad_magic(self, tmp_path):
        from repro.io.bam import BamReader

        path = tmp_path / "bad.bam"
        path.write_bytes(_bgzf_bytes(b"XXXX" + b"\x00" * 100))
        self._assert_closed_on_failure(lambda: BamReader(str(path)), "not a BAM file")

    def test_caller_handle_left_open(self):
        from repro.io.bam import BamReader

        handle = io.BytesIO(_bgzf_bytes(b"XXXX" + b"\x00" * 100))
        with pytest.raises(FormatError, match="not a BAM file"):
            BamReader(handle)
        assert not handle.closed
