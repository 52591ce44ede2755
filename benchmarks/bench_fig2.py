"""Figure 2: the per-thread execution trace of the parallel caller.

The paper's HPC-Toolkit trace shows (i) minimal thread-coordination
time, (ii) substantial BAM-iteration time, and (iii) one thread
causing a load imbalance because a high-cost partition (a variant
hotspot) landed near the end of the run.  The benchmarks reproduce all
three observables on a workload whose variants cluster in the last 10%
of the genome, and quantify the scheduling comparison the Discussion
makes ("smaller partitions towards the end" / dynamic scheduling to
reduce imbalance).
"""

import pytest

from repro.parallel.trace import Tracer, imbalance_metrics, render_timeline
from repro.pipeline import ExecutionPolicy, Pipeline, SampleSource

from conftest import write_report, write_stats_report

N_WORKERS = 8


def _run(sample, schedule, chunk_columns=64):
    tracer = Tracer()
    result = Pipeline(
        SampleSource(sample),
        policy=ExecutionPolicy(
            mode="thread", n_workers=N_WORKERS, schedule=schedule,
            chunk_columns=chunk_columns,
        ),
        tracer=tracer,
    ).run()
    return result, tracer


@pytest.mark.parametrize("schedule", ["static", "dynamic", "guided"])
def test_fig2_schedule_walltime(benchmark, hotspot_sample, schedule):
    """Wall-clock of the parallel run per scheduling policy."""
    result = benchmark.pedantic(
        _run, args=(hotspot_sample, schedule), rounds=1, iterations=1,
    )
    benchmark.extra_info["schedule"] = schedule
    benchmark.extra_info["imbalance"] = round(
        imbalance_metrics(result[1].events).get("imbalance", 0.0), 3
    )


def test_fig2_trace_report(benchmark, hotspot_sample):
    """The Figure 2 artefact: ASCII timeline + imbalance metrics for a
    coarse-chunk static run (the imbalance case) and a dynamic run."""

    def both():
        # Coarse static chunks: one worker inherits the hotspot tail.
        static = _run(hotspot_sample, "static", chunk_columns=256)
        dynamic = _run(hotspot_sample, "dynamic", chunk_columns=64)
        return static, dynamic

    (static_res, static_tr), (dyn_res, dyn_tr) = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    assert static_res.keys() == dyn_res.keys()

    lines = ["Figure 2 reproduction: per-worker traces on the hotspot workload"]
    for label, tracer in (("STATIC, coarse chunks", static_tr),
                          ("DYNAMIC, fine chunks", dyn_tr)):
        m = imbalance_metrics(tracer.events)
        lines.append("")
        lines.append(f"--- {label} ---")
        lines.append(render_timeline(tracer.events, width=96,
                                     n_workers=N_WORKERS))
        lines.append(
            f"imbalance (busy_max/busy_mean): {m['imbalance']:.2f}   "
            f"barrier total: {m['barrier_total'] * 1e3:.1f} ms"
        )
        lines.append(
            "busy-time shares: "
            + ", ".join(
                f"{k.removeprefix('share_')}={m[k]:.1%}"
                for k in sorted(m) if k.startswith("share_")
            )
        )
        # Paper observation (i): coordination time is minimal.
        assert m["share_sched"] < 0.05
        # Paper observation (ii): probability + pileup dominate.
        assert m["share_prob"] + m["share_bam_iter"] > 0.9
    write_report("fig2.txt", "\n".join(lines))
    write_stats_report(
        "fig2_stats.json",
        {
            "static_coarse": static_res.stats,
            "dynamic_fine": dyn_res.stats,
        },
        extra={
            "imbalance": {
                "static_coarse": imbalance_metrics(static_tr.events),
                "dynamic_fine": imbalance_metrics(dyn_tr.events),
            },
            "n_workers": N_WORKERS,
        },
    )
