"""Ablation: the approximation margin and depth gate.

The paper fixes the margin at 0.01 above the critical value and gates
the shortcut at depth >= 100, noting both were chosen conservatively
with "no experimentation or fine-tuning" -- and floats a depth-varying
threshold as future work (the approximation tightens with depth).
This bench does that missing sweep:

  * margin in {0, 0.001, 0.01, 0.05} -- skip rate and equivalence;
  * the adaptive (depth-shrinking) margin from
    :attr:`CallerConfig.adaptive_margin`;
  * depth gate in {0, 100, 1000}.
"""

import time

import pytest

from repro.core.config import CallerConfig
from repro.pipeline import Pipeline, SampleSource

from conftest import write_report

MARGINS = [0.0, 0.001, 0.01, 0.05]


def _deep_sample(table1_workload):
    _, _, samples = table1_workload
    return samples[max(samples)]


@pytest.mark.parametrize("margin", MARGINS)
def test_margin_runtime(benchmark, table1_workload, margin):
    sample = _deep_sample(table1_workload)
    cfg = CallerConfig.improved(approx_margin=margin)
    result = benchmark.pedantic(
        Pipeline(SampleSource(sample), config=cfg).run, rounds=1, iterations=1
    )
    benchmark.extra_info["margin"] = margin
    benchmark.extra_info["skip_fraction"] = round(
        result.stats.skip_fraction(), 4
    )


def test_margin_report(benchmark, table1_workload):
    sample = _deep_sample(table1_workload)

    def sweep():
        baseline = Pipeline(
            SampleSource(sample), config=CallerConfig.original()
        ).run()
        rows = []
        for margin in MARGINS:
            cfg = CallerConfig.improved(approx_margin=margin)
            t0 = time.perf_counter()
            r = Pipeline(SampleSource(sample), config=cfg).run()
            rows.append((f"{margin:g}", time.perf_counter() - t0, r))
        # Adaptive margin (Discussion future-work): shrink with depth.
        cfg = CallerConfig.improved(approx_margin=0.01, adaptive_margin=1000)
        t0 = time.perf_counter()
        r = Pipeline(SampleSource(sample), config=cfg).run()
        rows.append(("adaptive", time.perf_counter() - t0, r))
        return baseline, rows

    baseline, rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    ref = baseline.keys()
    lines = [
        "Margin ablation (paper: fixed 0.01, chosen conservatively)",
        f"dataset: {sample.mean_depth:.0f}x; original caller = reference",
        "",
        f"{'margin':>9} {'time (s)':>9} {'skip rate':>10} "
        f"{'calls':>6} {'== original':>12} {'subset':>7}",
    ]
    for label, seconds, r in rows:
        keys = r.keys()
        lines.append(
            f"{label:>9} {seconds:>9.3f} {r.stats.skip_fraction():>9.1%} "
            f"{len(keys):>6} {str(keys == ref):>12} {str(keys <= ref):>7}"
        )
        # The safety property must hold at EVERY margin.
        assert keys <= ref
    lines.append("")
    lines.append(
        "note: larger margins skip less (more conservative); even "
        "margin 0 can only lose calls, never invent them."
    )
    write_report("ablation_margin.txt", "\n".join(lines))


def test_depth_gate_report(benchmark, table1_workload):
    """The approx_min_depth=100 gate: sweep it."""
    _, _, samples = table1_workload
    shallow = samples[min(samples)]  # 50x: below the paper's gate

    def sweep():
        rows = []
        for gate in (0, 100, 1000):
            cfg = CallerConfig.improved(approx_min_depth=gate)
            t0 = time.perf_counter()
            r = Pipeline(SampleSource(shallow), config=cfg).run()
            rows.append((gate, time.perf_counter() - t0, r))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    baseline = Pipeline(
        SampleSource(shallow), config=CallerConfig.original()
    ).run()
    lines = [
        "Depth-gate ablation at 50x (paper gates the shortcut at depth >= 100)",
        "",
        f"{'gate':>6} {'time (s)':>9} {'approx evals':>13} {'calls':>6} "
        f"{'== original':>12}",
    ]
    for gate, seconds, r in rows:
        lines.append(
            f"{gate:>6} {seconds:>9.3f} {r.stats.approx_invocations:>13} "
            f"{len(r.keys()):>6} {str(r.keys() == baseline.keys()):>12}"
        )
        assert r.keys() <= baseline.keys()
    gate_100 = rows[1][2]
    assert gate_100.stats.approx_invocations == 0, (
        "at 50x with gate 100 the approximation must never fire"
    )
    write_report("ablation_depth_gate.txt", "\n".join(lines))
