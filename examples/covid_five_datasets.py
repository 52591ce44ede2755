#!/usr/bin/env python
"""The paper's SARS-CoV-2 analysis end to end (Figure 3).

Builds the five-dataset suite (scaled analogues of the 1,000x ...
1,000,000x samples), calls variants on each, and renders the upset
plot of shared SNVs plus a per-dataset recall table against the
ground-truth panels.

Run:  python examples/covid_five_datasets.py
"""

import time

from repro import CallerConfig, Pipeline, SampleSource, paper_dataset_suite
from repro.analysis import compute_upset, render_upset


def main() -> None:
    print("building the five-dataset suite (scaled 200x down) ...")
    suite = paper_dataset_suite(
        genome_length=1_200, depth_scale=200.0, panel_scale=10.0, seed=2021
    )
    config = CallerConfig.improved()

    call_sets = {}
    print(f"\n{'dataset':>9} {'depth':>8} {'truth':>6} {'called':>7} "
          f"{'recall':>7} {'time (s)':>9} {'skip rate':>10}")
    for ds in suite:
        t0 = time.perf_counter()
        result = Pipeline(SampleSource(ds.sample), config=config).run()
        elapsed = time.perf_counter() - t0
        call_sets[ds.label] = result.keys()
        truth = {
            (ds.sample.genome.name, v.pos, v.ref, v.alt) for v in ds.panel
        }
        recall = len(truth & call_sets[ds.label]) / len(truth)
        print(
            f"{ds.label:>9} {ds.spec.depth:>8.0f} {len(truth):>6} "
            f"{len(call_sets[ds.label]):>7} {recall:>6.0%} {elapsed:>9.2f} "
            f"{result.stats.skip_fraction():>9.0%}"
        )

    print("\n" + render_upset(compute_upset(call_sets)))

    upset = compute_upset(call_sets)
    print(f"\nSNVs shared by all five datasets: {upset.shared_by_all()} "
          "(paper: 2)")
    pairs = upset.pairwise_shared()
    best = max(pairs, key=pairs.get)
    print(f"pair sharing the most SNVs: {best[0]} & {best[1]} "
          f"({pairs[best]}) (paper: the two deepest)")
    unique = upset.unique_counts()
    print(f"dataset with the most unique SNVs: "
          f"{max(unique, key=unique.get)} (paper: 100000x)")


if __name__ == "__main__":
    main()
