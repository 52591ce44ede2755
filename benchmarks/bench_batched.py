"""Streaming vs batched engine: screening-stage and end-to-end costs.

The batched engine exists because, in Python, the O(d) Poisson-tail
screen costs one interpreter round-trip per allele -- so the *cheap*
stage dominates and the paper's Figure 2 profile inverts.  Two
measurements document the repair:

* ``test_screening_stage_speedup`` -- the screening stage alone, the
  per-allele scalar loop (exactly what the streaming engine runs)
  against the vectorised batch pass, on a depth >= 1000 workload.  The
  acceptance bar is 3x; the batch pass typically lands well above it.
* ``test_engine_end_to_end`` -- whole runs under both engines at every
  Table I depth, asserting identical call sets and decision censuses
  while reporting the wall-clock ratio (smaller, since pileup and the
  exact DP are shared).

* ``test_columnar_pileup_screen_speedup`` -- the whole pileup->screen
  stage: the PR 2 path (per-column pileup objects re-gathered by the
  batched engine) against the columnar ``ColumnBatch`` spine
  (structure-of-arrays pileup fed natively to ``screen_batch``), on a
  screened-out-heavy workload.  The acceptance bar is 2x over the
  PR 2 baseline.

* ``test_exact_stage_speedup`` -- the exact stage alone: the PR 3
  path (each screening survivor lifted to a ``PileupColumn`` and run
  through the scalar pruned DP one at a time) against the batch-native
  stage (``exact_batch`` feeding all survivors through
  ``poibin_sf_dp_batch`` at once), on an everything-survives workload
  (``use_approximation=False``).  The acceptance bar is 1.5x, with
  byte-identical calls and censuses; emits ``batched_stats.json``.

The per-column baselines these tests measure against were *removed*
from the engine (PR 3's pileup in PR 3, PR 3's survivor lifting in
PR 4), so each baseline lives here as a verbatim copy of the retired
code.

Run: ``pytest benchmarks/bench_batched.py --benchmark-only``
"""

import dataclasses
import time

import numpy as np
import pytest

from repro.core.batched import (
    GUARD_BAND,
    batch_margins,
    exact_batch,
    qual_prob_table,
    screen_batch,
)
from repro.core.config import CallerConfig
from repro.core.model import allele_error_probabilities, candidate_alleles
from repro.core.results import ColumnDecision, RunStats
from repro.core.workflow import exact_allele_decision
from repro.io.regions import Region
from repro.pileup.column import PileupColumn
from repro.pileup.vectorized import pileup_sample, pileup_sample_batch
from repro.pipeline import Pipeline, SampleSource
from repro.stats.approximation import (
    poisson_tail_approx,
    poisson_tail_approx_batch,
)

from conftest import FAST, write_report, write_stats_report


@pytest.fixture(scope="module")
def screening_sample():
    """A depth-2500 sample over a long genome: many columns above the
    paper's approximation gate, where the scalar screen's per-column
    ``np.power`` and per-allele interpreter round-trips -- the costs
    the batched engine amortises -- dominate."""
    from repro.sim.genome import sars_cov_2_like
    from repro.sim.haplotypes import random_panel
    from repro.sim.reads import ReadSimulator

    length = 700 if FAST else 1500
    genome = sars_cov_2_like(length=length, seed=909)
    panel = random_panel(
        genome.sequence, 10, freq_range=(0.02, 0.1), seed=909
    )
    simulator = ReadSimulator(genome, panel, read_length=100)
    return simulator.simulate(2500, seed=910)


def _screening_workload(sample, config):
    """The screening stage's input: the deep columns and their
    candidate alleles (identical, engine-independent work up to this
    point -- coverage gate, base counting)."""
    workload = []
    for column in pileup_sample(sample):
        if column.depth < max(config.min_coverage, config.approx_min_depth):
            continue
        candidates = candidate_alleles(column)
        if not candidates:
            continue
        workload.append((column, candidates))
    return workload


def _screen_scalar(workload, config, corrected_alpha):
    """The streaming engine's screen, verbatim from ``decide_allele``:
    per column the error-probability vector, then one scalar Poisson
    tail per allele, each re-deriving lambda from that vector."""
    decisions = []
    for column, candidates in workload:
        probs = allele_error_probabilities(column)
        for _, alt_count in candidates:
            p_hat = poisson_tail_approx(alt_count, probs)
            corrected = min(1.0, p_hat / corrected_alpha * config.alpha)
            margin = config.margin_for_depth(column.depth)
            decisions.append(corrected >= config.alpha + margin)
    return decisions


def _screen_batched(workload, config, corrected_alpha):
    """The batched engine's screen, verbatim from its gather/screen
    stages: lambda from the quality histogram once per column (no
    float64 probability vector for screened columns), one vectorised
    tail pass over every (column, allele) pair, and the guard-band
    scalar re-decision for threshold-grazing pairs."""
    table = qual_prob_table()
    ks, lams, pairs = [], [], []
    for column, candidates in workload:
        lam = float(np.bincount(column.quals, minlength=256) @ table)
        for _, alt_count in candidates:
            ks.append(alt_count)
            lams.append(lam)
            pairs.append((column, alt_count))
    p_hat = poisson_tail_approx_batch(
        np.array(ks, dtype=np.float64), np.array(lams, dtype=np.float64)
    )
    corrected = np.minimum(1.0, p_hat / corrected_alpha * config.alpha)
    depths = np.array([column.depth for column, _ in pairs], dtype=np.float64)
    thresholds = config.alpha + batch_margins(depths, config)
    skip = corrected >= thresholds
    for i in np.nonzero(np.abs(corrected - thresholds) < GUARD_BAND)[0]:
        column, alt_count = pairs[i]
        exact = poisson_tail_approx(
            alt_count, allele_error_probabilities(column)
        )
        exact_corrected = min(1.0, exact / corrected_alpha * config.alpha)
        margin = config.margin_for_depth(column.depth)
        skip[i] = exact_corrected >= config.alpha + margin
    return list(skip)


def _best_of(fn, repeats=3):
    best, value = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def test_screening_stage_speedup(benchmark, screening_sample):
    """The acceptance bar: >= 3x on the screening stage at depth >= 1000."""
    sample = screening_sample
    assert sample.mean_depth >= 1000
    config = CallerConfig.improved()
    corrected_alpha = config.corrected_alpha(len(sample.genome))
    workload = _screening_workload(sample, config)
    n_pairs = sum(len(c) for _, c in workload)

    def measure():
        t_scalar, scalar = _best_of(
            lambda: _screen_scalar(workload, config, corrected_alpha)
        )
        t_batch, batch = _best_of(
            lambda: _screen_batched(workload, config, corrected_alpha)
        )
        return t_scalar, t_batch, scalar, batch

    t_scalar, t_batch, scalar, batch = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    speedup = t_scalar / t_batch if t_batch > 0 else float("inf")
    assert batch == scalar, "screen decisions diverged between engines"
    # Anchor the hand-rolled stage copies above to the shipped engine:
    # if repro.core.batched changes its screen, the skip census here
    # must move with it or this trips.
    engine_result = Pipeline(
        SampleSource(sample), config=CallerConfig.improved(engine="batched")
    ).run()
    assert engine_result.stats.exact_skipped == sum(batch)
    lines = [
        "Screening stage: scalar per-allele loop vs vectorised batch pass",
        f"workload: {sample.mean_depth:.0f}x sample, {len(workload)} columns, "
        f"{n_pairs} (column, allele) pairs",
        "",
        f"scalar screen : {t_scalar * 1e3:>8.2f} ms",
        f"batched screen: {t_batch * 1e3:>8.2f} ms",
        f"speedup       : {speedup:>8.1f}x (acceptance bar: 3x)",
        f"identical skip decisions: {batch == scalar}",
    ]
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["n_pairs"] = n_pairs
    write_report("batched_screen.txt", "\n".join(lines))
    # The 3x acceptance bar is asserted on the full workload; the FAST
    # smoke profile is too small for stable wall-clock ratios on a
    # shared CI runner, so it only sanity-checks the direction.
    if FAST:
        assert speedup > 1.0, f"batched screen slower than scalar ({speedup:.2f}x)"
    else:
        assert speedup >= 3.0, (
            f"screening speedup {speedup:.2f}x below the 3x bar"
        )


# -- retired per-column engine internals, kept verbatim as baselines ----------


class _LiftedColumn:
    """The retired engine's ``_ColumnJob``: one column's shared
    screening state, error vector materialised lazily."""

    __slots__ = ("column", "_probs")

    def __init__(self, column, probs=None):
        self.column = column
        self._probs = probs

    @property
    def probs(self):
        if self._probs is None:
            self._probs = qual_prob_table()[self.column.quals]
        return self._probs


class _LiftedPair:
    """The retired engine's ``_Pair``: one gathered (column, allele)."""

    __slots__ = ("job", "alt_code", "alt_count", "lam")

    def __init__(self, job, alt_code, alt_count, lam):
        self.job = job
        self.alt_code = alt_code
        self.alt_count = alt_count
        self.lam = lam

    @property
    def column(self):
        return self.job.column

    @property
    def probs(self):
        return self.job.probs


def _lifted_gather(columns, config, stats):
    """The retired per-column gather pass (``_gather``), base-quality
    model only (what ``CallerConfig.improved()`` runs)."""
    screened, direct = [], []
    table = qual_prob_table()
    for column in columns:
        stats.columns_seen += 1
        if column.depth < config.min_coverage:
            stats.record_decision(ColumnDecision.LOW_COVERAGE)
            continue
        candidates = candidate_alleles(column)
        if not candidates:
            stats.record_decision(ColumnDecision.NO_CANDIDATE)
            continue
        screen = (
            config.use_approximation
            and column.depth >= config.approx_min_depth
        )
        job = _LiftedColumn(column)
        lam = (
            float(np.bincount(column.quals, minlength=256) @ table)
            if screen
            else None
        )
        for alt_code, alt_count in candidates:
            stats.tests_run += 1
            pair = _LiftedPair(job, alt_code, alt_count, lam)
            if screen:
                stats.approx_invocations += 1
                screened.append(pair)
            else:
                direct.append(pair)
    return screened, direct


def _lifted_screen(pairs, corrected_alpha, config, stats):
    """The retired vectorised first pass over lifted pairs
    (``_screen``), guard band included."""
    ks = np.array([p.alt_count for p in pairs], dtype=np.float64)
    lams = np.array([p.lam for p in pairs], dtype=np.float64)
    depths = np.array([p.column.depth for p in pairs], dtype=np.float64)
    p_hat = poisson_tail_approx_batch(ks, lams)
    p_hat_corrected = np.minimum(1.0, p_hat / corrected_alpha * config.alpha)
    thresholds = config.alpha + batch_margins(depths, config)
    skip = p_hat_corrected >= thresholds
    near = np.abs(p_hat_corrected - thresholds) < GUARD_BAND
    for i in np.nonzero(near)[0]:
        pair = pairs[i]
        exact_p_hat = poisson_tail_approx(pair.alt_count, pair.probs)
        corrected = min(1.0, exact_p_hat / corrected_alpha * config.alpha)
        margin = config.margin_for_depth(pair.column.depth)
        skip[i] = corrected >= config.alpha + margin
    return skip


def _pr2_pileup_columns(sample):
    """The PR 2 pileup path, verbatim: flatten the read matrix, mask,
    stable-sort by position, find column boundaries with ``np.unique``
    (a second sort) and slice one ``PileupColumn`` object per
    position.  This is the baseline the columnar spine replaces."""
    from repro.pileup.engine import PileupConfig

    cfg = PileupConfig()
    region = Region(sample.genome.name, 0, len(sample.genome))
    reference = sample.genome.sequence
    starts, codes, quals, reverse = (
        sample.starts,
        sample.codes,
        sample.quals,
        sample.reverse,
    )
    rl = codes.shape[1]
    positions = (starts[:, None] + np.arange(rl)[None, :]).ravel()
    flat_codes = codes.ravel()
    flat_quals = quals.ravel()
    flat_rev = np.repeat(reverse, rl)
    mask = (
        (positions >= region.start)
        & (positions < region.end)
        & (flat_quals >= cfg.min_baseq)
    )
    positions = positions[mask]
    flat_codes = flat_codes[mask]
    flat_quals = flat_quals[mask]
    flat_rev = flat_rev[mask]
    order = np.argsort(positions, kind="stable")
    positions = positions[order]
    flat_codes = flat_codes[order]
    flat_quals = flat_quals[order]
    flat_rev = flat_rev[order]
    unique_pos, first_idx = np.unique(positions, return_index=True)
    boundaries = np.append(first_idx, positions.size)
    mapq_u8 = np.uint8(min(sample.mapq, 255))
    for i, pos in enumerate(unique_pos):
        lo, hi = int(boundaries[i]), int(boundaries[i + 1])
        yield PileupColumn(
            chrom=region.chrom,
            pos=int(pos),
            ref_base=reference[int(pos)].upper(),
            base_codes=flat_codes[lo:hi],
            quals=flat_quals[lo:hi],
            reverse=flat_rev[lo:hi],
            mapqs=np.full(hi - lo, mapq_u8, dtype=np.uint8),
        )


def test_columnar_pileup_screen_speedup(benchmark, screening_sample):
    """The columnar acceptance bar: pileup->screen >= 2x over PR 2.

    Baseline: PR 2's per-column pileup objects pushed through the
    retired per-column gather and screen (``_lifted_gather`` /
    ``_lifted_screen`` above, verbatim copies of the code this PR
    removed from the engine).  Columnar: ``pileup_sample_batch`` ->
    ``screen_batch``, no per-column objects.  Both must reach
    identical skip decisions and identical surviving
    (position, allele) pairs.
    """
    sample = screening_sample
    config = CallerConfig.improved()
    corrected_alpha = config.corrected_alpha(len(sample.genome))

    def baseline():
        stats = RunStats()
        screened, direct = _lifted_gather(
            _pr2_pileup_columns(sample), config, stats
        )
        skipped = 0
        survivors = [
            (p.column.pos, p.alt_code, p.alt_count) for p in direct
        ]
        if screened:
            skip = _lifted_screen(screened, corrected_alpha, config, stats)
            skipped = int(skip.sum())
            survivors.extend(
                (p.column.pos, p.alt_code, p.alt_count)
                for p, s in zip(screened, skip)
                if not s
            )
        return stats, skipped, survivors

    def columnar():
        stats = RunStats()
        batch = pileup_sample_batch(sample)
        triples = screen_batch(batch, corrected_alpha, config, stats)
        survivors = [
            (int(batch.positions[i]), code, count)
            for i, code, count in triples
        ]
        return stats, stats.exact_skipped, survivors

    def measure():
        baseline()  # warm both paths (allocator, caches, LUTs)
        columnar()
        t_base, base = _best_of(baseline)
        t_col, col = _best_of(columnar)
        return t_base, t_col, base, col

    t_base, t_col, base, col = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    base_stats, base_skipped, base_survivors = base
    col_stats, col_skipped, col_survivors = col
    assert base_skipped == col_skipped, "skip censuses diverged"
    assert sorted(base_survivors) == sorted(col_survivors)
    assert base_stats.columns_seen == col_stats.columns_seen
    assert base_stats.tests_run == col_stats.tests_run
    # Anchor to the shipped engine: the columnar pipeline must reach
    # the same skip census end to end.
    engine_result = Pipeline(
        SampleSource(sample), config=CallerConfig.improved(engine="batched")
    ).run()
    assert engine_result.stats.exact_skipped == col_skipped
    speedup = t_base / t_col if t_col > 0 else float("inf")
    lines = [
        "Pileup->screen stage: PR 2 per-column path vs columnar spine",
        f"workload: {sample.mean_depth:.0f}x sample, "
        f"{base_stats.columns_seen} columns, "
        f"{base_stats.tests_run} (column, allele) pairs, "
        f"{col_skipped} screened out",
        "",
        f"PR 2 per-column : {t_base * 1e3:>8.2f} ms",
        f"columnar batch  : {t_col * 1e3:>8.2f} ms",
        f"speedup         : {speedup:>8.1f}x (acceptance bar: 2x)",
    ]
    benchmark.extra_info["speedup"] = round(speedup, 2)
    write_report("batched_columnar.txt", "\n".join(lines))
    write_stats_report(
        "batched_columnar_stats.json",
        {"pr2_per_column": base_stats, "columnar": col_stats},
        extra={
            "t_pr2_s": round(t_base, 6),
            "t_columnar_s": round(t_col, 6),
            "speedup": round(speedup, 3),
        },
    )
    # As with the screening bar above, wall-clock ratios on the tiny
    # FAST profile are too noisy for a hard multiple on shared CI.
    if FAST:
        assert speedup > 1.0, (
            f"columnar pileup->screen slower than PR 2 ({speedup:.2f}x)"
        )
    else:
        assert speedup >= 2.0, (
            f"columnar speedup {speedup:.2f}x below the 2x bar"
        )


@pytest.fixture(scope="module")
def exact_stage_sample():
    """A wide moderate-depth sample (the realistic calling regime:
    many columns at a few hundred x): plenty of surviving
    (column, allele) lanes per DP sweep step, which is what the batch
    exact stage amortises its per-step cost over."""
    from repro.sim.genome import sars_cov_2_like
    from repro.sim.haplotypes import random_panel
    from repro.sim.reads import ReadSimulator

    length = 1500 if FAST else 4000
    genome = sars_cov_2_like(length=length, seed=911)
    panel = random_panel(
        genome.sequence, 25, freq_range=(0.02, 0.1), seed=911
    )
    simulator = ReadSimulator(genome, panel, read_length=100)
    return simulator.simulate(600, seed=912)


def test_exact_stage_speedup(benchmark, exact_stage_sample):
    """The batch-native exact stage acceptance bar: >= 1.5x over the
    retired per-column survivor lifting.

    Workload: ``use_approximation=False``, so *every* candidate pair
    survives the (vacuous) screen and hits the exact DP -- the
    exact-stage-heavy regime.  Baseline: PR 3's survivor loop,
    verbatim -- lift each surviving column to a ``PileupColumn``,
    gather its probability vector and run the scalar pruned DP per
    pair.  Batch: ``exact_batch`` feeding all survivors through
    ``poibin_sf_dp_batch``.  Calls and censuses must be identical.
    """
    sample = exact_stage_sample
    config = CallerConfig.original()
    corrected_alpha = config.corrected_alpha(len(sample.genome))
    batch = pileup_sample_batch(sample)
    pre = RunStats()
    survivors = screen_batch(batch, corrected_alpha, config, pre)
    assert len(survivors) == pre.tests_run  # nothing screened out
    assert len(survivors) > (40 if FAST else 100)

    def lifted():
        # PR 3's evaluate_batch survivor tail, verbatim.
        stats = RunStats()
        calls = []
        table = qual_prob_table()
        jobs = {}
        for col_idx, alt_code, alt_count in survivors:
            cached = jobs.get(col_idx)
            if cached is None:
                column = batch.column(col_idx)
                jobs[col_idx] = cached = (column, table[column.quals])
            column, probs = cached
            outcome = exact_allele_decision(
                column, alt_code, alt_count, probs, corrected_alpha,
                config, stats,
            )
            if outcome.call is not None:
                calls.append(outcome.call)
        return stats, calls

    def batched():
        stats = RunStats()
        calls = exact_batch(batch, survivors, corrected_alpha, config, stats)
        return stats, calls

    def measure():
        lifted()  # warm both paths (allocator, caches, LUTs)
        batched()
        t_lift, lift = _best_of(lifted)
        t_batch, bat = _best_of(batched)
        return t_lift, t_batch, lift, bat

    t_lift, t_batch, lift, bat = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    lift_stats, lift_calls = lift
    batch_stats, batch_calls = bat
    key = lambda c: (c.chrom, c.pos, c.alt)  # noqa: E731
    assert [dataclasses.astuple(c) for c in sorted(lift_calls, key=key)] == [
        dataclasses.astuple(c) for c in sorted(batch_calls, key=key)
    ], "exact-stage calls diverged"
    assert lift_stats.decisions == batch_stats.decisions
    assert lift_stats.dp_invocations == batch_stats.dp_invocations
    assert lift_stats.dp_steps == batch_stats.dp_steps
    # Anchor to the shipped engine: a full batched run must reach the
    # same decision census as screen + batch exact stage here.
    engine_result = Pipeline(
        SampleSource(sample), config=CallerConfig.original(engine="batched")
    ).run()
    merged = dict(pre.decisions)
    for k, v in batch_stats.decisions.items():
        merged[k] = merged.get(k, 0) + v
    assert engine_result.stats.decisions == merged
    speedup = t_lift / t_batch if t_batch > 0 else float("inf")
    lines = [
        "Exact stage: per-column survivor lifting vs batch-native DP",
        f"workload: {sample.mean_depth:.0f}x sample, "
        f"{len(survivors)} surviving (column, allele) pairs, "
        f"{len(batch_calls)} calls",
        "",
        f"per-column lifting: {t_lift * 1e3:>8.2f} ms",
        f"batch exact stage : {t_batch * 1e3:>8.2f} ms",
        f"speedup           : {speedup:>8.1f}x (acceptance bar: 1.5x)",
    ]
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["n_survivors"] = len(survivors)
    write_report("batched_exact_stage.txt", "\n".join(lines))
    write_stats_report(
        "batched_stats.json",
        {"lifted": lift_stats, "batched": batch_stats},
        extra={
            "t_lifted_s": round(t_lift, 6),
            "t_batched_s": round(t_batch, 6),
            "speedup": round(speedup, 3),
            "n_survivors": len(survivors),
        },
    )
    # Wall-clock multiples are unstable on the tiny FAST profile
    # (shared CI runners); there the check is direction only.
    if FAST:
        assert speedup > 1.0, (
            f"batch exact stage slower than lifting ({speedup:.2f}x)"
        )
    else:
        assert speedup >= 1.5, (
            f"exact-stage speedup {speedup:.2f}x below the 1.5x bar"
        )


def test_engine_end_to_end(benchmark, table1_workload):
    """Whole runs under both engines at every depth: identical output,
    reported wall-clock ratio."""
    _, _, samples = table1_workload

    def build_rows():
        rows = []
        for depth in sorted(samples):
            sample = samples[depth]
            t0 = time.perf_counter()
            streaming = Pipeline(
                SampleSource(sample),
                config=CallerConfig.improved(engine="streaming"),
            ).run()
            t_stream = time.perf_counter() - t0
            t0 = time.perf_counter()
            batched = Pipeline(
                SampleSource(sample), config=CallerConfig.improved(engine="batched")
            ).run()
            t_batch = time.perf_counter() - t0
            rows.append((depth, t_stream, t_batch, streaming, batched))
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    lines = [
        "End-to-end: streaming vs batched engine (improved algorithm)",
        "",
        f"{'depth':>8} {'stream (s)':>11} {'batched (s)':>11} {'ratio':>7} "
        f"{'calls':>6} {'identical':>9}",
    ]
    for depth, t_stream, t_batch, streaming, batched in rows:
        identical = (
            streaming.keys() == batched.keys()
            and streaming.stats.decisions == batched.stats.decisions
        )
        ratio = t_stream / t_batch if t_batch > 0 else float("inf")
        lines.append(
            f"{depth:>8} {t_stream:>11.3f} {t_batch:>11.3f} {ratio:>6.2f}x "
            f"{len(streaming.passed):>6} {str(identical):>9}"
        )
        assert identical, f"engines diverged at depth {depth}"
    write_report("batched_end_to_end.txt", "\n".join(lines))
    write_stats_report(
        "batched_end_to_end_stats.json",
        {
            f"depth{depth}/{engine}": res.stats
            for depth, _, _, streaming, batched in rows
            for engine, res in (("streaming", streaming), ("batched", batched))
        },
    )
