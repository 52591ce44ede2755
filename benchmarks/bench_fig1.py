"""Figure 1: (a) the Poisson approximation vs the Poisson-binomial
distribution at a deep column; (b) the improved workflow's decision
census.

Figure 1a in the paper plots the Poisson-binomial pmf (bars) against
the continuous Poisson approximation (red line) with the right-tail
test statistics shaded.  The report regenerates that data as a series
(k, pmf_exact, pmf_poisson, tail_exact, tail_poisson) plus the
Hodges--Le Cam bound.  Figure 1b is the workflow diagram; its
quantitative content is the decision census -- what fraction of allele
tests end in each terminal state -- which the second benchmark emits.
"""

import numpy as np
import pytest

from repro.core.config import CallerConfig
from repro.pipeline import Pipeline, SampleSource
from repro.stats.approximation import le_cam_bound, poisson_lambda
from repro.stats.poisson import poisson_pmf, poisson_sf
from repro.stats.poisson_binomial import poibin_pmf_dp, poibin_sf_dp

from conftest import write_report


@pytest.fixture(scope="module")
def deep_column_probs():
    """Per-read specific-allele error probabilities for one deep
    column: depth 2,000, heterogeneous qualities Q20-Q40."""
    rng = np.random.default_rng(11)
    quals = rng.uniform(20, 40, size=2000)
    return (10.0 ** (-quals / 10.0)) / 3.0


def test_fig1a_distribution_series(benchmark, deep_column_probs):
    """Regenerate Figure 1a's plotted data."""
    p = deep_column_probs

    def compute():
        pmf_exact = poibin_pmf_dp(p)
        lam = poisson_lambda(p)
        return pmf_exact, lam

    pmf_exact, lam = benchmark.pedantic(compute, rounds=1, iterations=1)
    k_max = int(lam) + 12
    lines = [
        "Figure 1a reproduction: Poisson-binomial pmf vs Poisson approximation",
        f"column depth d = {p.size}, lambda = sum p_i = {lam:.4f}, "
        f"Le Cam bound sum p_i^2 = {le_cam_bound(p):.2e}",
        "",
        f"{'k':>4} {'pmf exact':>12} {'pmf Poisson':>12} "
        f"{'tail exact':>12} {'tail Poisson':>12}",
    ]
    max_tail_err = 0.0
    for k in range(0, k_max):
        tail_exact = poibin_sf_dp(k, p).pvalue
        tail_pois = poisson_sf(k, lam)
        max_tail_err = max(max_tail_err, abs(tail_exact - tail_pois))
        bar = "#" * int(round(pmf_exact[k] * 120))
        lines.append(
            f"{k:>4} {pmf_exact[k]:>12.6f} {poisson_pmf(k, lam):>12.6f} "
            f"{tail_exact:>12.6f} {tail_pois:>12.6f}  {bar}"
        )
    lines.append("")
    lines.append(
        f"max |tail_exact - tail_poisson| over k: {max_tail_err:.3e} "
        f"(<= Le Cam bound {le_cam_bound(p):.3e})"
    )
    assert max_tail_err <= le_cam_bound(p) + 1e-12
    write_report("fig1a.txt", "\n".join(lines))


def test_fig1b_workflow_census(benchmark, table1_workload):
    """The workflow of Figure 1b, measured: decision-path fractions on
    a deep dataset under the improved caller -- and the batched
    engine's census, which must be identical."""
    _, _, samples = table1_workload
    sample = samples[max(samples)]

    run = Pipeline(
        SampleSource(sample), config=CallerConfig.improved(engine="streaming")
    ).run
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    batched = Pipeline(
        SampleSource(sample), config=CallerConfig.improved(engine="batched")
    ).run()
    assert batched.stats.decisions == result.stats.decisions
    assert batched.keys() == result.keys()
    stats = result.stats
    total = stats.tests_run
    lines = [
        "Figure 1b reproduction: decision census of the improved workflow",
        f"dataset: {sample.mean_depth:.0f}x, {stats.columns_seen} columns, "
        f"{total} allele tests",
        "",
        f"{'terminal state':<24} {'count':>8} {'fraction':>9}",
    ]
    for state, count in sorted(stats.decisions.items(), key=lambda kv: -kv[1]):
        if state in ("low_coverage", "no_candidate"):
            continue
        lines.append(f"{state:<24} {count:>8} {count / total:>8.1%}")
    lines.append("")
    lines.append(
        f"exact DP skipped via Poisson first pass: {stats.exact_skipped} "
        f"({stats.skip_fraction():.1%} of tests)"
    )
    lines.append(
        f"approximation evaluations: {stats.approx_invocations}, "
        f"exact DP invocations: {stats.dp_invocations}"
    )
    lines.append(
        "batched engine census identical: "
        f"{batched.stats.decisions == stats.decisions}"
    )
    assert stats.skip_fraction() > 0.5
    write_report("fig1b.txt", "\n".join(lines))
