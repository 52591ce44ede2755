"""Table I: original vs improved runtime across the five depths.

Paper (Xeon Gold 6138, real 1 MB - 25 GB BAMs):

    depth      orig     new    speed-up
    1,000x     52 s     51 s     1.0x
    30,000x    58 m     26 m     2.6x
    100,000x   14 h      4 h     3.3x
    300,000x   55 h     12 h     4.6x
    1,000,000x 415 h   111 h     3.7x

Here depths are scaled ~50x down (50x ... 20,000x on a 300 nt genome)
and the substrate is the in-memory vectorised pileup, so the measured
seconds differ wildly from the paper's hours -- but the three facts
Table I documents must reproduce:

  1. identical variant call sets between versions at every depth;
  2. speed-up ~1x at the shallowest depth (the approximation is gated
     off below depth 100, and shallow DP arrays are cache-resident);
  3. speed-up growing with depth.

Run: ``pytest benchmarks/bench_table1.py --benchmark-only``
"""

import time

import pytest

from repro.core.config import CallerConfig
from repro.pipeline import Pipeline, SampleSource

from conftest import FAST, write_report, write_stats_report


def _depth_params(table1_workload):
    _, _, samples = table1_workload
    return sorted(samples)


#: The Table I versions plus the batched engine (same algorithm as
#: "improved", chunk-level vectorised screening).
VERSION_CONFIGS = {
    "original": lambda: CallerConfig.original(engine="streaming"),
    "improved": lambda: CallerConfig.improved(engine="streaming"),
    "improved-batched": lambda: CallerConfig.improved(engine="batched"),
}


@pytest.mark.parametrize("depth", [50, 500, 2000, 8000, 20000])
@pytest.mark.parametrize("version", sorted(VERSION_CONFIGS))
def test_table1_runtime(benchmark, table1_workload, depth, version):
    """One cell of Table I: one version at one depth."""
    _, _, samples = table1_workload
    if depth not in samples:
        pytest.skip("depth not in this scale profile")
    sample = samples[depth]
    config = VERSION_CONFIGS[version]()
    result = benchmark.pedantic(
        Pipeline(SampleSource(sample), config=config).run,
        rounds=1, iterations=1, warmup_rounds=0,
    )
    benchmark.extra_info["depth"] = depth
    benchmark.extra_info["version"] = version
    benchmark.extra_info["n_calls"] = len(result.passed)
    benchmark.extra_info["dp_steps"] = result.stats.dp_steps


def test_table1_report(benchmark, table1_workload):
    """The whole table in one run: times both versions at every depth,
    checks call-set identity, writes the Table-I-shaped report."""
    _, panel, samples = table1_workload

    def build_table():
        rows = []
        for depth in sorted(samples):
            sample = samples[depth]
            t0 = time.perf_counter()
            orig = Pipeline(
                SampleSource(sample),
                config=CallerConfig.original(engine="streaming"),
            ).run()
            t_orig = time.perf_counter() - t0
            t0 = time.perf_counter()
            new = Pipeline(
                SampleSource(sample),
                config=CallerConfig.improved(engine="streaming"),
            ).run()
            t_new = time.perf_counter() - t0
            t0 = time.perf_counter()
            bat = Pipeline(
                SampleSource(sample), config=CallerConfig.improved(engine="batched")
            ).run()
            t_bat = time.perf_counter() - t0
            rows.append((depth, t_orig, t_new, t_bat, orig, new, bat))
        return rows

    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)

    lines = [
        "Table I reproduction (scaled ~50x: depths 50x-20,000x, 300 nt genome)",
        "paper: 1.0x / 2.6x / 3.3x / 4.6x / 3.7x at 1k/30k/100k/300k/1M depth",
        "",
        f"{'depth':>8} {'orig (s)':>10} {'new (s)':>10} {'batched (s)':>11} "
        f"{'speedup':>8} {'orig calls':>10} {'new calls':>10} {'identical':>9}",
    ]
    shallowest_speedup = None
    speedups = []
    for depth, t_orig, t_new, t_bat, orig, new, bat in rows:
        identical = (
            orig.keys() == new.keys()
            and new.keys() == bat.keys()
            and new.stats.decisions == bat.stats.decisions
        )
        speedup = t_orig / t_new if t_new > 0 else float("inf")
        speedups.append(speedup)
        if shallowest_speedup is None:
            shallowest_speedup = speedup
        lines.append(
            f"{depth:>8} {t_orig:>10.3f} {t_new:>10.3f} {t_bat:>11.3f} "
            f"{speedup:>7.2f}x "
            f"{len(orig.passed):>10} {len(new.passed):>10} {str(identical):>9}"
        )
        # Paper's headline: identical output at every depth -- now
        # across three implementations.
        assert identical, f"call sets diverged at depth {depth}"
    # Speed-up must grow from ~1x to a clear win at depth.  The FAST
    # smoke profile's shallow cells finish in milliseconds, where
    # wall-clock ratios are scheduler noise -- only the output-identity
    # assertions above are meaningful there.
    if not FAST:
        assert speedups[0] < 1.6, "no-op regime should be ~1x"
        assert max(speedups[2:]) > 1.8, "deep regime should show a speed-up"
        assert speedups[-1] == max(speedups) or speedups[-2] == max(speedups)
    write_report("table1.txt", "\n".join(lines))
    write_stats_report(
        "table1_stats.json",
        {
            f"depth{depth}/{version}": res.stats
            for depth, _, _, _, orig, new, bat in rows
            for version, res in (
                ("original", orig),
                ("improved", new),
                ("improved-batched", bat),
            )
        },
        extra={
            "speedups": {
                f"depth{depth}": t_orig / t_new if t_new > 0 else None
                for depth, t_orig, t_new, _, _, _, _ in rows
            }
        },
    )
