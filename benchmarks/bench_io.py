"""Substrate benchmarks: BGZF / BAM codec throughput and the two
pileup engines.

Not a paper table, but the numbers contextualise Figure 2's "time
spent iterating over the .bam file is substantial" observation for
this Python reproduction, and guard against codec regressions.
"""

import io
import time

import pytest

from repro.io.bam import BamReader, BamWriter
from repro.io.bgzf import BgzfReader, BgzfWriter
from repro.io.regions import Region
from repro.pileup.engine import PileupConfig, pileup
from repro.pileup.vectorized import pileup_sample, pileup_sample_batch

from conftest import FAST, write_stats_report

#: Cross-test collector for the machine-readable report written by
#: ``test_write_io_stats_report`` (file-scoped; pytest runs the tests
#: in definition order).
_IO_STATS: dict = {}


@pytest.fixture(scope="module")
def payload():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.integers(0, 255, size=4 << 20, dtype=np.uint8).tobytes()


@pytest.fixture(scope="module")
def bam_bytes(table1_workload):
    _, _, samples = table1_workload
    sample = samples[2000]
    buf = io.BytesIO()
    writer = BamWriter(buf, sample.header())
    for read in sample.reads():
        writer.write(read)
    writer.close()
    return buf.getvalue()


def test_bgzf_compress(benchmark, payload):
    def compress():
        buf = io.BytesIO()
        with BgzfWriter(buf) as w:
            w.write(payload)
        return buf.tell()

    size = benchmark(compress)
    benchmark.extra_info["compressed_mb"] = round(size / 1e6, 2)
    _IO_STATS["bgzf_compress"] = {
        "payload_mb": round(len(payload) / 1e6, 2),
        "compressed_mb": round(size / 1e6, 2),
        "best_s": round(benchmark.stats.stats.min, 6),
    }


def test_bgzf_decompress(benchmark, payload):
    buf = io.BytesIO()
    with BgzfWriter(buf) as w:
        w.write(payload)
    raw = buf.getvalue()

    def decompress():
        return len(BgzfReader(io.BytesIO(raw)).read())

    n = benchmark(decompress)
    assert n == len(payload)
    _IO_STATS["bgzf_decompress"] = {
        "payload_mb": round(len(payload) / 1e6, 2),
        "best_s": round(benchmark.stats.stats.min, 6),
    }


def test_bam_decode(benchmark, bam_bytes):
    def decode():
        with BamReader(io.BytesIO(bam_bytes)) as reader:
            return sum(1 for _ in reader)

    n = benchmark.pedantic(decode, rounds=2, iterations=1)
    benchmark.extra_info["records"] = n
    _IO_STATS["bam_decode"] = {
        "records": n,
        "best_s": round(benchmark.stats.stats.min, 6),
    }


def test_bam_encode(benchmark, table1_workload):
    _, _, samples = table1_workload
    sample = samples[2000]
    reads = sample.read_list()
    header = sample.header()

    def encode():
        buf = io.BytesIO()
        writer = BamWriter(buf, header)
        for read in reads:
            writer.write(read)
        writer.close()
        return buf.tell()

    benchmark.pedantic(encode, rounds=2, iterations=1)
    benchmark.extra_info["records"] = len(reads)
    _IO_STATS["bam_encode"] = {
        "records": len(reads),
        "best_s": round(benchmark.stats.stats.min, 6),
    }


def test_pileup_streaming(benchmark, table1_workload):
    genome, _, samples = table1_workload
    sample = samples[2000]
    reads = sample.read_list()
    region = Region(genome.name, 0, len(genome))

    def run():
        return sum(
            1 for _ in pileup(iter(reads), genome.sequence, region,
                              PileupConfig())
        )

    n = benchmark.pedantic(run, rounds=1, iterations=1)
    _IO_STATS["pileup_streaming"] = {
        "columns": n,
        "best_s": round(benchmark.stats.stats.min, 6),
    }


def test_pileup_vectorized(benchmark, table1_workload):
    genome, _, samples = table1_workload
    sample = samples[2000]
    region = Region(genome.name, 0, len(genome))

    def run():
        return sum(1 for _ in pileup_sample(sample, region))

    n = benchmark.pedantic(run, rounds=2, iterations=1)
    _IO_STATS["pileup_vectorized"] = {
        "columns": n,
        "best_s": round(benchmark.stats.stats.min, 6),
    }


def test_pileup_columnar_batch(benchmark, table1_workload):
    """The ColumnBatch spine: same pileup as ``test_pileup_vectorized``
    but returned as one structure-of-arrays batch, no per-column
    views."""
    genome, _, samples = table1_workload
    sample = samples[2000]
    region = Region(genome.name, 0, len(genome))

    def run():
        return pileup_sample_batch(sample, region).n_columns

    n = benchmark.pedantic(run, rounds=2, iterations=1)
    _IO_STATS["pileup_columnar_batch"] = {
        "columns": n,
        "best_s": round(benchmark.stats.stats.min, 6),
    }


def _construction_peak(fn):
    """Peak traced allocation (bytes) while ``fn`` runs."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_builder_bounded_construction_memory():
    """PR 5 acceptance: the incremental ``ColumnBatchBuilder`` bounds
    pileup-construction memory at one flush window (``batch_columns``)
    while the legacy whole-chunk path grows with the chunk.

    Measured with ``tracemalloc`` over the same reads: the legacy path
    (``pileup_batch_from_reads`` + after-the-fact re-slicing, what
    ``BamSource.batches_for`` did before the builder) materialises the
    whole chunk's flat arrays, so doubling the chunk roughly doubles
    its peak; the builder path's peak stays roughly flat.
    """
    from conftest import FAST

    from repro.io.regions import Region
    from repro.pileup.engine import PileupConfig
    from repro.pileup.vectorized import (
        iter_pileup_batches,
        pileup_batch_from_reads,
    )
    from repro.sim.genome import random_genome
    from repro.sim.reads import ReadSimulator

    length = 3000 if FAST else 6000
    batch_columns = 256
    genome = random_genome(length, gc_content=0.5, name="chrMem", seed=11)
    sample = ReadSimulator(genome, read_length=100).simulate(
        depth=40 if FAST else 60, seed=12
    )
    reads = sample.read_list()
    cfg = PileupConfig()

    def legacy(region):
        def run():
            batch = pileup_batch_from_reads(
                iter(reads), genome.sequence, region, cfg
            )
            for lo in range(0, batch.n_columns, batch_columns):
                batch.slice_columns(
                    lo, min(lo + batch_columns, batch.n_columns)
                )

        return run

    def builder(region):
        def run():
            for _ in iter_pileup_batches(
                iter(reads), genome.sequence, region, cfg,
                batch_columns=batch_columns,
            ):
                pass

        return run

    half = Region(genome.name, 0, length // 2)
    full = Region(genome.name, 0, length)
    peaks = {
        "legacy_half": _construction_peak(legacy(half)),
        "legacy_full": _construction_peak(legacy(full)),
        "builder_half": _construction_peak(builder(half)),
        "builder_full": _construction_peak(builder(full)),
    }
    _IO_STATS["construction_memory"] = {
        "batch_columns": batch_columns,
        "columns_full": length,
        **{k: round(v / 1e6, 3) for k, v in peaks.items()},
        "builder_vs_legacy_full": round(
            peaks["legacy_full"] / peaks["builder_full"], 2
        ),
        "builder_growth_half_to_full": round(
            peaks["builder_full"] / peaks["builder_half"], 2
        ),
        "legacy_growth_half_to_full": round(
            peaks["legacy_full"] / peaks["legacy_half"], 2
        ),
    }
    # The builder's construction memory is bounded by batch_columns,
    # not the chunk: well below the whole-chunk path on the same
    # input, and near-flat as the chunk doubles (loose factors keep
    # allocator noise from flaking CI).
    assert peaks["builder_full"] * 2 < peaks["legacy_full"], peaks
    assert peaks["builder_full"] < peaks["builder_half"] * 1.6, peaks
    # The legacy path genuinely scales with the chunk (the contrast
    # that makes the bound above meaningful).
    assert peaks["legacy_full"] > peaks["legacy_half"] * 1.5, peaks


def test_span_path_bounded_construction_memory(tmp_path):
    """The batched engine's BAM path (``BamSource.batches_for``, records
    decoded a span at a time) keeps construction memory bounded by its
    default window (``BATCH_COLUMNS``): doubling the region leaves the
    traced peak near flat, with the builder test's loose 1.6 factor.
    Even the fast profile's 3,000-column region is three default
    windows, so a default that made each region one window fails here.

    The source is warmed first (reader, seek index, one pass), which
    leaves every block of the file in its reader's block cache, so the
    measured peak is the windows' own: record bodies, gathers and
    deposits.
    """
    from conftest import FAST

    from repro.io.regions import Region
    from repro.pipeline import BamSource
    from repro.sim.genome import random_genome
    from repro.sim.reads import ReadSimulator

    length = 3000 if FAST else 6000
    genome = random_genome(length, gc_content=0.5, name="chrSpan", seed=11)
    sample = ReadSimulator(genome, read_length=100).simulate(
        depth=40 if FAST else 60, seed=12
    )
    bam = tmp_path / "span.bam"
    with BamWriter(str(bam), sample.header()) as writer:
        for read in sample.reads():
            writer.write(read)
    source = BamSource(bam, genome.sequence)
    half = Region(genome.name, 0, length // 2)
    full = Region(genome.name, 0, length)

    def scan(region):
        def run():
            for _ in source.batches_for(region):
                pass

        return run

    scan(full)()  # warm: reader, linear index, one pass
    peaks = {
        "span_half": _construction_peak(scan(half)),
        "span_full": _construction_peak(scan(full)),
    }
    _IO_STATS.setdefault("construction_memory", {}).update(
        {
            **{k: round(v / 1e6, 3) for k, v in peaks.items()},
            "span_growth_half_to_full": round(
                peaks["span_full"] / peaks["span_half"], 2
            ),
        }
    )
    assert peaks["span_full"] < peaks["span_half"] * 1.6, peaks


def test_region_query_block_cache(payload):
    """ISSUE 6 acceptance: repeated region queries against the same
    BGZF file are measurably faster with a warm decompressed-block LRU
    than with the historical single-block reader, and the warm pass's
    hit rate lands in the report.

    The drive loop mimics what indexed region calling does to the
    codec: seek to a chunk's virtual offset, read a region's worth of
    bytes, move to the next chunk -- revisiting the same blocks across
    queries.  Raw BGZF reads (no BAM record decode) keep the measured
    contrast about the cache, not the record parser.
    """
    from conftest import FAST

    from repro.io.bgzf import block_offsets, make_virtual_offset

    buf = io.BytesIO()
    with BgzfWriter(buf) as w:
        w.write(payload)
    raw = buf.getvalue()
    offsets = block_offsets(io.BytesIO(raw))
    # 8 query start points spread over the file, revisited every round.
    starts = offsets[:: max(1, len(offsets) // 8)][:8]
    rounds = 10 if FAST else 40

    def drive(reader):
        total = 0
        for _ in range(rounds):
            for start in starts:
                reader.seek(make_virtual_offset(start, 0))
                total += len(reader.readexact(32768))
        return total

    cold_reader = BgzfReader(io.BytesIO(raw), cache_blocks=1)
    t0 = time.perf_counter()
    n_cold = drive(cold_reader)
    cold_s = time.perf_counter() - t0

    warm_reader = BgzfReader(io.BytesIO(raw), cache_blocks=64)
    t0 = time.perf_counter()
    n_warm = drive(warm_reader)
    warm_s = time.perf_counter() - t0

    assert n_cold == n_warm  # identical bytes either way
    lookups = warm_reader.cache_hits + warm_reader.cache_misses
    hit_rate = warm_reader.cache_hits / lookups
    speedup = cold_s / warm_s
    _IO_STATS["region_query"] = {
        "queries": rounds * len(starts),
        "bytes_per_query": 32768,
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "cold_bytes_per_s": round(n_cold / cold_s, 0),
        "warm_bytes_per_s": round(n_warm / warm_s, 0),
        "warm_hit_rate": round(hit_rate, 4),
        "warm_evictions": warm_reader.cache_evictions,
        "cold_blocks_read": cold_reader.blocks_read,
        "warm_blocks_read": warm_reader.blocks_read,
        "speedup": round(speedup, 2),
    }
    # The warm cache must actually win: fewer inflations, mostly hits,
    # measured wall-clock speedup.
    assert warm_reader.blocks_read < cold_reader.blocks_read
    assert hit_rate > 0.5
    assert speedup > 1.0, _IO_STATS["region_query"]


def _bam_payload(bam_bytes, target_mb):
    """~target_mb MB of the synthetic BAM's decompressed record bytes
    (the realistic deflate workload)."""
    inner = BgzfReader(io.BytesIO(bam_bytes)).read()
    return inner * max(1, (target_mb << 20) // len(inner))


def test_parallel_compress_pool(bam_bytes):
    """Compressed bytes/s versus deflate-pool size; pooled output must
    be bit-identical to the serial writer's."""
    import os

    blob = _bam_payload(bam_bytes, 4 if FAST else 16)

    def drive(threads):
        best, value = None, None
        for _ in range(2):
            buf = io.BytesIO()
            t0 = time.perf_counter()
            with BgzfWriter(buf, compress_threads=threads) as writer:
                writer.write(blob)
            elapsed = time.perf_counter() - t0
            if best is None or elapsed < best:
                best = elapsed
            value = buf.getvalue()
        return best, value

    serial_s, serial_bytes = drive(0)
    curve = {}
    for threads in (1, 2, 4):
        pooled_s, pooled_bytes = drive(threads)
        assert pooled_bytes == serial_bytes  # bit-for-bit
        curve[str(threads)] = {
            "s": round(pooled_s, 6),
            "bytes_per_s": round(len(blob) / pooled_s, 0),
            "speedup": round(serial_s / pooled_s, 2),
        }
    _IO_STATS["parallel_compress"] = {
        "payload_mb": round(len(blob) / 1e6, 2),
        "cpu_count": os.cpu_count() or 1,
        "serial_s": round(serial_s, 6),
        "serial_bytes_per_s": round(len(blob) / serial_s, 0),
        "threads": curve,
        "speedup_threads4": round(
            serial_s / curve["4"]["s"], 2
        ),
    }


def test_write_io_stats_report(table1_workload):
    """Persist the collected substrate numbers machine-readably (runs
    last in this file; the perf trajectory across PRs reads these)."""
    assert _IO_STATS, "collector never populated"
    # Streaming and columnar pileup must agree on the column census
    # before their timings are comparable.
    if "pileup_streaming" in _IO_STATS and "pileup_columnar_batch" in _IO_STATS:
        assert (
            _IO_STATS["pileup_streaming"]["columns"]
            == _IO_STATS["pileup_columnar_batch"]["columns"]
        )
    write_stats_report(
        "io_stats.json",
        _IO_STATS,
        extra={"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")},
    )
