"""Discussion: the legacy parallel double-filtering inconsistency.

The paper: "the original implementation results in the output running
through two stages of filtering when run in parallel ... filter values
are dynamically set during a LoFreq run, which causes the
aforementioned filtering bug to produce inconsistent results.  Our
approach of using OpenMP to move all of the variant calling to the
same process seems to remedy this problem."

The report runs the same artifact-laden sample through the legacy
pipeline at several partition counts (outputs differ) and through the
OpenMP-style driver at several worker counts (outputs identical to the
single-process run).
"""

import pytest

from repro.core.config import CallerConfig
from repro.pipeline import ExecutionPolicy, Pipeline, SampleSource
from repro.sim.genome import random_genome
from repro.sim.haplotypes import ArtifactSpec, random_panel
from repro.sim.reads import ReadSimulator

from conftest import write_report


@pytest.fixture(scope="module")
def tricky_sample():
    """Real variants plus strand-biased artifacts whose SB scores sit
    near the dynamic cutoffs -- the borderline calls the bug flips."""
    g = random_genome(2000, seed=201)
    panel = random_panel(
        g.sequence, 10, freq_range=(0.03, 0.1), seed=1,
        exclude_positions={100, 600, 1100, 1600},
    )
    artifacts = [
        ArtifactSpec(p, "T" if g.sequence[p] != "T" else "G", rate)
        for p, rate in [(100, 0.04), (600, 0.05), (1100, 0.06), (1600, 0.045)]
    ]
    sim = ReadSimulator(g, panel, read_length=80, artifacts=artifacts)
    return g, sim.simulate(depth=500, seed=1)


def test_filterbug_report(benchmark, tricky_sample):
    _, sample = tricky_sample
    config = CallerConfig.improved()

    def run_everything():
        single = Pipeline(SampleSource(sample), config=config).run()
        legacy = {
            n: Pipeline(
                SampleSource(sample),
                config=config,
                policy=ExecutionPolicy(mode="legacy", n_workers=n),
            ).run()
            for n in (1, 2, 4, 8)
        }
        openmp = {
            n: Pipeline(
                SampleSource(sample),
                policy=ExecutionPolicy(
                    mode="thread", n_workers=n, chunk_columns=256
                ),
            ).run()
            for n in (1, 2, 4, 8)
        }
        return single, legacy, openmp

    single, legacy, openmp = benchmark.pedantic(
        run_everything, rounds=1, iterations=1
    )
    ref = single.keys()
    lines = [
        "Legacy double-filtering bug reproduction",
        f"single-process PASS calls: {len(ref)}",
        "",
        f"{'mode':<10} {'workers':>8} {'PASS':>6} {'== single':>10}",
    ]
    legacy_outputs = set()
    for n, r in legacy.items():
        keys = r.keys()
        legacy_outputs.add(frozenset(keys))
        lines.append(
            f"{'legacy':<10} {n:>8} {len(keys):>6} {str(keys == ref):>10}"
        )
    openmp_outputs = set()
    for n, r in openmp.items():
        keys = r.keys()
        openmp_outputs.add(frozenset(keys))
        lines.append(
            f"{'openmp':<10} {n:>8} {len(keys):>6} {str(keys == ref):>10}"
        )
    lines.append("")
    lines.append(
        f"legacy distinct outputs across partitionings : {len(legacy_outputs)}"
    )
    lines.append(
        f"openmp distinct outputs across worker counts : {len(openmp_outputs)}"
    )

    assert len(legacy_outputs) > 1, "legacy mode should be inconsistent"
    assert len(openmp_outputs) == 1, "openmp mode must be deterministic"
    assert openmp_outputs == {frozenset(ref)}
    write_report("filterbug.txt", "\n".join(lines))


@pytest.mark.parametrize("mode", ["legacy", "openmp"])
def test_filterbug_mode_runtime(benchmark, tricky_sample, mode):
    """Runtime comparison of the two parallel organisations (same
    4-way work split)."""
    _, sample = tricky_sample
    if mode == "legacy":
        policy = ExecutionPolicy(mode="legacy", n_workers=4)
    else:
        policy = ExecutionPolicy(mode="thread", n_workers=4, chunk_columns=256)
    benchmark.pedantic(
        Pipeline(SampleSource(sample), policy=policy).run, rounds=1, iterations=1
    )
