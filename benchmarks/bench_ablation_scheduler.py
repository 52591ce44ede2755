"""Ablation: scheduling policy and chunk granularity on the hotspot
workload (the Discussion's load-imbalance remedy).

The paper observed imbalance even with dynamic scheduling when
"partitions with high concentrations of variants near the end" arrive
late, and suggested smaller end-of-run partitions (guided).  The
report sweeps (schedule, chunk size) and tabulates wall time, the
busy-time imbalance ratio, and barrier time.
"""

import time

import pytest

from repro.parallel.trace import Tracer, imbalance_metrics
from repro.pipeline import ExecutionPolicy, Pipeline, SampleSource

from conftest import write_report

N_WORKERS = 8
GRID = [
    ("static", 512),
    ("static", 64),
    ("dynamic", 512),
    ("dynamic", 64),
    ("guided", 64),
]


def _run(sample, schedule, chunk):
    tracer = Tracer()
    t0 = time.perf_counter()
    result = Pipeline(
        SampleSource(sample),
        policy=ExecutionPolicy(
            mode="thread", n_workers=N_WORKERS, schedule=schedule,
            chunk_columns=chunk,
        ),
        tracer=tracer,
    ).run()
    return time.perf_counter() - t0, result, tracer


def test_scheduler_report(benchmark, hotspot_sample):
    def sweep():
        return [
            (schedule, chunk, *_run(hotspot_sample, schedule, chunk))
            for schedule, chunk in GRID
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    reference = rows[0][3].keys()
    lines = [
        "Scheduler ablation on the variant-hotspot workload "
        f"({N_WORKERS} workers)",
        "",
        f"{'schedule':>9} {'chunk':>6} {'wall (s)':>9} {'imbalance':>10} "
        f"{'barrier (ms)':>13}",
    ]
    for schedule, chunk, wall, result, tracer in rows:
        m = imbalance_metrics(tracer.events)
        lines.append(
            f"{schedule:>9} {chunk:>6} {wall:>9.3f} {m['imbalance']:>10.3f} "
            f"{m['barrier_total'] * 1e3:>13.1f}"
        )
        # Output must be schedule-invariant.
        assert result.keys() == reference
    lines.append("")
    lines.append(
        "output identical under every policy; differences are purely "
        "wall-clock/imbalance (the paper's OpenMP correctness story)."
    )
    write_report("ablation_scheduler.txt", "\n".join(lines))


@pytest.mark.parametrize("schedule,chunk", GRID)
def test_scheduler_walltime(benchmark, hotspot_sample, schedule, chunk):
    benchmark.pedantic(
        _run, args=(hotspot_sample, schedule, chunk), rounds=1, iterations=1
    )
    benchmark.extra_info["schedule"] = schedule
    benchmark.extra_info["chunk"] = chunk
