#!/usr/bin/env python
"""Parallel operation: the OpenMP-style driver vs the legacy wrapper.

Demonstrates the paper's Section II-B contribution:

  1. the OpenMP-style parallel-for gives *identical* output at any
     worker count (and prints its Figure 2-style execution trace);
  2. the legacy partition-per-process wrapper, with its two dynamic
     filtering stages, produces partition-dependent output -- the bug
     the reorganisation fixed.

Run:  python examples/parallel_modes.py
"""

import time

from repro import CallerConfig, ExecutionPolicy, Pipeline, SampleSource
from repro.parallel import Tracer
from repro.parallel.trace import imbalance_metrics, render_timeline
from repro.sim.genome import random_genome
from repro.sim.haplotypes import ArtifactSpec, random_panel
from repro.sim.reads import ReadSimulator


def build_sample():
    """A 500x sample with real variants plus strand-biased artifacts
    (the borderline calls that expose the legacy bug)."""
    genome = random_genome(2_000, seed=201)
    panel = random_panel(
        genome.sequence, 10, freq_range=(0.03, 0.1), seed=1,
        exclude_positions={100, 600, 1100, 1600},
    )
    artifacts = [
        ArtifactSpec(p, "T" if genome.sequence[p] != "T" else "G", rate)
        for p, rate in [(100, 0.04), (600, 0.05), (1100, 0.06), (1600, 0.045)]
    ]
    sim = ReadSimulator(genome, panel, read_length=80, artifacts=artifacts)
    return sim.simulate(depth=500, seed=1)


def main() -> None:
    sample = build_sample()
    single = Pipeline(SampleSource(sample), config=CallerConfig.improved()).run()
    print(f"single-process reference: {len(single.passed)} PASS calls")

    print("\n--- OpenMP-style shared-memory driver ---")
    tracer = Tracer()
    for workers in (1, 2, 4, 8):
        t0 = time.perf_counter()
        result = Pipeline(
            SampleSource(sample),
            policy=ExecutionPolicy(
                mode="thread", n_workers=workers, chunk_columns=256,
                schedule="dynamic",
            ),
            tracer=tracer if workers == 8 else None,
        ).run()
        elapsed = time.perf_counter() - t0
        match = "==" if result.keys() == single.keys() else "!="
        print(
            f"  {workers} workers: {len(result.passed)} calls in "
            f"{elapsed:.2f}s  (output {match} single-process)"
        )

    print("\nexecution trace of the 8-worker run (cf. paper Figure 2):")
    print(render_timeline(tracer.events, width=90))
    m = imbalance_metrics(tracer.events)
    print(
        f"imbalance {m['imbalance']:.2f}, "
        f"prob share {m['share_prob']:.0%}, "
        f"pileup share {m['share_bam_iter']:.0%}, "
        f"scheduler share {m['share_sched']:.1%}"
    )

    print("\n--- legacy wrapper (double dynamic filtering) ---")
    outputs = set()
    for parts in (1, 2, 4, 8):
        result = Pipeline(
            SampleSource(sample),
            policy=ExecutionPolicy(mode="legacy", n_workers=parts),
        ).run()
        outputs.add(frozenset(result.keys()))
        match = "==" if result.keys() == single.keys() else "!="
        print(
            f"  {parts} partitions: {len(result.passed)} calls "
            f"(output {match} single-process)"
        )
    print(
        f"\nlegacy mode produced {len(outputs)} distinct outputs across "
        "partitionings -- the inconsistency the paper's OpenMP version fixes."
    )


if __name__ == "__main__":
    main()
