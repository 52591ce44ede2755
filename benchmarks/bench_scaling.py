"""Worker-count scaling of the parallel caller (Section III-B's
profiling context).

The paper profiles its OpenMP build on a 128-thread KNL; we measure
strong scaling of the process backend (real CPU parallelism -- the
thread backend models scheduling behaviour but the probability stage is
partly GIL-bound in Python) and report parallel efficiency.
"""

import time

import pytest

from repro.pipeline import ExecutionPolicy, Pipeline, SampleSource

from conftest import FAST, write_report, write_stats_report

WORKER_COUNTS = [1, 2, 4, 8]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_scaling_walltime(benchmark, hotspot_sample, workers):
    policy = ExecutionPolicy(
        mode="process", n_workers=workers, chunk_columns=256, schedule="static"
    )
    run = Pipeline(SampleSource(hotspot_sample), policy=policy).run
    benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["workers"] = workers


def test_scaling_report(benchmark, hotspot_sample):
    sample = hotspot_sample

    def sweep():
        rows = []
        reference = None
        for workers in WORKER_COUNTS:
            t0 = time.perf_counter()
            result = Pipeline(
                SampleSource(sample),
                policy=ExecutionPolicy(
                    mode="process", n_workers=workers, chunk_columns=256,
                    schedule="static",
                ),
            ).run()
            wall = time.perf_counter() - t0
            if reference is None:
                reference = result.keys()
            assert result.keys() == reference
            rows.append((workers, wall, result.stats))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_stats_report(
        "scaling_stats.json",
        {f"workers{workers}": stats for workers, _, stats in rows},
        extra={"wall_s": {workers: round(wall, 6) for workers, wall, _ in rows}},
    )
    rows = [(workers, wall) for workers, wall, _ in rows]
    t1 = rows[0][1]
    lines = [
        "Strong scaling of the parallel caller (process backend, "
        "static schedule)",
        f"workload: {sample.mean_depth:.0f}x over "
        f"{len(sample.genome)} columns",
        "",
        f"{'workers':>8} {'wall (s)':>9} {'speed-up':>9} {'efficiency':>11}",
    ]
    for workers, wall in rows:
        speedup = t1 / wall
        lines.append(
            f"{workers:>8} {wall:>9.3f} {speedup:>8.2f}x "
            f"{speedup / workers:>10.1%}"
        )
    # Sanity: more workers should not be dramatically slower (allow
    # fork/IPC overhead at this small scale to eat the gains).  In the
    # FAST smoke profile the workload is so small that fork overhead
    # alone exceeds the compute; only the output-identity assertions
    # above are meaningful there.
    if not FAST:
        assert rows[-1][1] < t1 * 1.5
    lines.append("")
    lines.append(
        "output identical at every worker count (asserted); absolute "
        "scaling is bounded by fork/merge overhead at this toy size."
    )
    write_report("scaling.txt", "\n".join(lines))
