"""Figure 3: the upset plot of SNVs shared across the five datasets.

Paper facts to reproduce in shape:
  * 134 (min) to 885 (max) SNVs per dataset -- scaled down here;
  * exactly two SNVs shared across all five datasets;
  * the two deepest datasets (300,000x / 1,000,000x) share the most
    variants of any pair;
  * the 100,000x dataset has the most unique SNVs.
"""

import pytest

from repro.analysis.upset import compute_upset, render_upset
from repro.core.config import CallerConfig
from repro.pipeline import Pipeline, SampleSource

from conftest import write_report


@pytest.fixture(scope="module")
def suite_results(figure3_suite):
    config = CallerConfig.improved()
    return {
        ds.label: Pipeline(SampleSource(ds.sample), config=config).run()
        for ds in figure3_suite
    }


def test_fig3_calling_suite(benchmark, figure3_suite):
    """Time calling the middle (100,000x-analogue) dataset."""
    ds = figure3_suite[2]
    pipeline = Pipeline(SampleSource(ds.sample), config=CallerConfig.improved())
    result = benchmark.pedantic(pipeline.run, rounds=1, iterations=1)
    benchmark.extra_info["dataset"] = ds.label
    benchmark.extra_info["n_calls"] = len(result.passed)


def test_fig3_upset_report(benchmark, figure3_suite, suite_results):
    """Build the upset structure and render the Figure 3 artefact."""
    sets = {label: r.keys() for label, r in suite_results.items()}

    upset = benchmark.pedantic(
        compute_upset, args=(sets,), rounds=1, iterations=1
    )

    lines = [
        "Figure 3 reproduction: SNVs shared across the five datasets",
        "paper: 134-885 SNVs per dataset; 2 shared by all five; "
        "300000x/1000000x share the most for any pair; 100000x has the most "
        "unique SNVs",
        "",
        render_upset(upset),
        "",
    ]

    # Shape checks against the paper's observations.
    totals = upset.totals
    lines.append(f"SNVs per dataset: {totals}")
    shared_all = upset.shared_by_all()
    lines.append(f"shared by all five: {shared_all}")
    pairwise = upset.pairwise_shared()
    best_pair = max(pairwise, key=pairwise.get)
    lines.append(
        "pairwise shared (top 3): "
        + ", ".join(
            f"{a}&{b}={n}"
            for (a, b), n in sorted(pairwise.items(), key=lambda kv: -kv[1])[:3]
        )
    )
    unique = upset.unique_counts()
    most_unique = max(unique, key=unique.get)
    lines.append(f"unique SNVs per dataset: {unique}")

    assert shared_all >= 2, "the all-five core must be recovered"
    assert set(best_pair) == {"300000x", "1000000x"}
    assert most_unique == "100000x"
    truth_sizes = {ds.label: len(ds.panel) for ds in figure3_suite}
    lines.append(f"ground-truth panel sizes: {truth_sizes}")
    write_report("fig3.txt", "\n".join(lines))


def test_fig3_recall_by_depth(benchmark, figure3_suite, suite_results):
    """Sensitivity grows with depth (the force shaping Figure 3's
    per-dataset totals)."""

    def recalls():
        out = {}
        for ds in figure3_suite:
            truth = {
                (ds.sample.genome.name, v.pos, v.ref, v.alt)
                for v in ds.panel
            }
            called = suite_results[ds.label].keys()
            out[ds.label] = len(truth & called) / len(truth)
        return out

    out = benchmark.pedantic(recalls, rounds=1, iterations=1)
    # Every dataset detects a solid majority of its own panel
    # (frequencies were designed to be detectable at its depth).
    for label, recall in out.items():
        assert recall > 0.6, f"{label}: recall {recall:.2f}"
