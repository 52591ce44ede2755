"""Shared benchmark fixtures and the report-file helper.

Every benchmark writes a human-readable report into
``benchmarks/out/`` as a side effect, so the paper-shape numbers
survive the pytest-benchmark run (whose own table only shows
timings).  EXPERIMENTS.md records a reference run.

Set ``REPRO_BENCH_FAST=1`` to shrink workloads ~4x for smoke runs.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")

OUT_DIR = pathlib.Path(__file__).parent / "out"


def write_report(name: str, text: str) -> None:
    """Persist a benchmark report (and echo it for -s runs)."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(text)
    print(f"\n[report written to {path}]\n{text}")


def write_stats_report(name: str, stats_by_key, extra: dict | None = None) -> None:
    """Persist run statistics machine-readably (``RunStats.to_dict``).

    Args:
        name: report filename (conventionally ``*.json``).
        stats_by_key: mapping of label -> :class:`repro.core.RunStats`
            (or an already-serialised dict).
        extra: additional top-level keys (workload shape, timings).
    """
    OUT_DIR.mkdir(exist_ok=True)
    payload = {
        "stats": {
            str(key): s.to_dict() if hasattr(s, "to_dict") else s
            for key, s in stats_by_key.items()
        }
    }
    if extra:
        payload.update(extra)
    path = OUT_DIR / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\n[stats written to {path}]")


@pytest.fixture(scope="session")
def table1_workload():
    """The Table I workload: one genome, five depths, one panel.

    Depths are the paper's five divided by 50 (capped for runtime);
    the panel is fixed so both caller versions chase identical truth.
    """
    from repro.sim.genome import sars_cov_2_like
    from repro.sim.haplotypes import random_panel
    from repro.sim.reads import ReadSimulator

    genome_length = 150 if FAST else 300
    depths = [50, 500, 2000, 8000] if FAST else [50, 500, 2000, 8000, 20000]
    genome = sars_cov_2_like(length=genome_length, seed=404)
    panel = random_panel(
        genome.sequence, 4, freq_range=(0.02, 0.08), seed=404,
    )
    simulator = ReadSimulator(genome, panel, read_length=100)
    samples = {
        depth: simulator.simulate(depth, seed=1000 + depth) for depth in depths
    }
    return genome, panel, samples


@pytest.fixture(scope="session")
def figure3_suite():
    """The five-dataset suite for Figure 3 (and the upset analysis)."""
    from repro.sim.datasets import paper_dataset_suite

    return paper_dataset_suite(
        genome_length=600 if FAST else 1200,
        depth_scale=400.0 if FAST else 200.0,
        panel_scale=20.0 if FAST else 10.0,
        seed=2021,
    )


@pytest.fixture(scope="session")
def hotspot_sample():
    """A sample whose variants cluster in the last 10% of the genome:
    the load-imbalance workload behind the Figure 2 reproduction."""
    import numpy as np

    from repro.sim.genome import sars_cov_2_like
    from repro.sim.haplotypes import VariantPanel, VariantSpec
    from repro.sim.reads import ReadSimulator

    length = 1000 if FAST else 2000
    genome = sars_cov_2_like(length=length, seed=77)
    rng = np.random.default_rng(78)
    panel = VariantPanel()
    hot_lo = int(length * 0.88)
    positions = rng.choice(
        np.arange(hot_lo, length - 100), size=12, replace=False
    )
    for pos in sorted(int(p) for p in positions):
        ref = genome.sequence[pos]
        alt = "ACGT"[("ACGT".index(ref) + 1) % 4]
        panel.add(VariantSpec(pos, ref, alt, float(rng.uniform(0.02, 0.1))))
    simulator = ReadSimulator(genome, panel, read_length=100)
    return simulator.simulate(depth=300 if FAST else 800, seed=79)
