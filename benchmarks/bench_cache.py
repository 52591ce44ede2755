"""Discussion cache claims: DP sweeps vs the approximation's pass.

Paper (hardware counters on the real C code): cache miss rate over 70%
for the original vs below 15% for the improved version, attributed to
the exact computation "repeatedly iterating over an array that does
not fit in the cache" at depth > 1e5.

Our idealized trace replay cannot reproduce the absolute rates (the
C original's allocator churn and pointer indirection add conflict
misses a clean streaming model lacks), but it reproduces the
*mechanism* and direction:

  * per-column **misses** for the DP explode once the O(d) probability
    vector outgrows the cache, while the approximation stays at one
    streaming pass;
  * the DP's miss *rate* jumps from ~0 (cache-resident, the regime the
    paper keeps the original path for, d < 100) to the streaming floor
    once capacity is exceeded;
  * with several threads sharing one cache, the capacity cliff moves
    to proportionally smaller d (the paper's "spill over our shared
    cache when running in parallel" point).
"""

import pytest

from repro.cachesim.cache import SetAssociativeCache
from repro.cachesim.traces import (
    approx_column_trace,
    dp_column_trace,
    interleave_traces,
    replay,
)

from conftest import FAST, write_report

#: 256 KiB shared slice, 64 B lines, 16-way -- scaled-down Xeon-ish
#: geometry (the pure-Python replay cannot afford 1 MiB x 1e5-depth
#: traces; capacity ratios, which drive the effect, are preserved).
CACHE_KW = dict(size_bytes=1 << 18, line_size=64, associativity=16)

DEPTHS = [1_000, 4_000, 16_000, 64_000]

#: Depths timed one by one.  The report replays every depth anyway (it
#: keeps 64,000: at 16,000 the 128 KB probability vector still fits
#: the cache), so the FAST profile times only the two shallow ones.
REPLAY_DEPTHS = DEPTHS[:2] if FAST else DEPTHS


def _stride(d):
    """Subsample the DP outer loop to ~24 sampled sweeps: every
    emitted sweep still walks the whole live prefix, so reuse
    distances (and thus miss rates) are preserved."""
    return max(1, d // 24)


def _dp_stats(d, threads=1):
    cache = SetAssociativeCache(**CACHE_KW)
    stride = _stride(d)
    if threads == 1:
        return replay(dp_column_trace(d, stride_reads=stride), cache)
    traces = [
        dp_column_trace(d, thread=t, stride_reads=stride)
        for t in range(threads)
    ]
    return replay(interleave_traces(traces), cache)


def _approx_stats(d):
    cache = SetAssociativeCache(**CACHE_KW)
    return replay(approx_column_trace(d), cache)


@pytest.mark.parametrize("depth", REPLAY_DEPTHS)
def test_cache_dp_replay(benchmark, depth):
    stats = benchmark.pedantic(_dp_stats, args=(depth,), rounds=1, iterations=1)
    benchmark.extra_info["depth"] = depth
    benchmark.extra_info["miss_rate"] = round(stats.miss_rate, 4)


def test_cache_report(benchmark):
    def build():
        rows = []
        for d in DEPTHS:
            dp = _dp_stats(d)
            # No assertion reads the 8-thread column (the cliff test
            # checks the shared spill), so the FAST profile skips it.
            dp8 = None if FAST else _dp_stats(d, threads=8)
            ap = _approx_stats(d)
            rows.append((d, dp, dp8, ap))
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    lines = [
        "Cache behaviour reproduction (Discussion): 256 KiB / 64 B / 16-way LRU",
        "paper: miss rate >70% (original) vs <15% (improved) at ultra-depth",
        "",
        f"{'depth':>8} {'DP miss%':>9} {'DP(8thr) miss%':>15} "
        f"{'approx miss%':>13} {'DP misses/col':>14} {'approx misses/col':>18}",
    ]
    for d, dp, dp8, ap in rows:
        dp8_text = "-" if dp8 is None else f"{dp8.miss_rate:.1%}"
        lines.append(
            f"{d:>8} {dp.miss_rate:>8.1%} {dp8_text:>15} "
            f"{ap.miss_rate:>12.1%} {dp.misses * _stride(d):>14} {ap.misses:>18}"
        )
    # Direction checks.
    shallow_dp = rows[0][1]
    deep_dp = rows[-1][1]
    deep_ap = rows[-1][3]
    assert shallow_dp.miss_rate < 0.01, "cache-resident regime"
    # Streaming floor for read+write sweeps of 8 B elements in 64 B
    # lines is 1/16 = 6.25%: every line fetched anew each sweep.
    assert deep_dp.miss_rate > 0.04, "capacity-exceeded streaming regime"
    # The improved path's total misses per column are orders of
    # magnitude lower at depth (it touches the data once).
    assert deep_dp.misses * _stride(64_000) > 100 * deep_ap.misses
    lines.append("")
    lines.append(
        "mechanism reproduced: DP sweeps lose all reuse once 8*d bytes "
        "exceed the cache; the approximation reads the column once."
    )
    write_report("cache.txt", "\n".join(lines))


def test_cache_shared_capacity_cliff(benchmark):
    """Eight threads sharing the cache move the DP's cliff to ~d/8
    (the paper's parallel-spill observation)."""

    def cliff():
        d = 12_000  # 96 KB per-thread probvec; 8 threads -> 768 KiB >> 256 KiB
        single = _dp_stats(d)
        shared = _dp_stats(d, threads=8)
        return single, shared

    single, shared = benchmark.pedantic(cliff, rounds=1, iterations=1)
    assert single.miss_rate < 0.01  # fits alone
    assert shared.miss_rate > 0.04  # spills when shared
