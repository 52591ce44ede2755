"""Call records and run statistics.

:class:`VariantCall` is the caller's output unit (one SNV), converting
losslessly to the VCF dialect in :mod:`repro.io.vcf`.
:class:`RunStats` captures the operational counters behind every
claim in the paper: how many columns took which decision path
(Figure 1b census), how many DP steps ran (the work Table I's speedups
come from), and coarse stage timings (Figure 2's categories).
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Dict, List, Tuple

from repro.io.vcf import VcfRecord

__all__ = [
    "VariantCall",
    "RunStats",
    "ColumnDecision",
    "CallResult",
    "IO_COUNTERS",
]

#: The BGZF block-cache counters a BAM-backed run adds to
#: :class:`RunStats`: the names of both the reader attributes and the
#: stats fields, counted per chunk stream by ``BamSource``.
IO_COUNTERS = ("cache_hits", "cache_misses", "cache_evictions")


class ColumnDecision(enum.Enum):
    """Terminal state of one allele test in the Figure 1b workflow."""

    LOW_COVERAGE = "low_coverage"
    NO_CANDIDATE = "no_candidate"
    SKIPPED_APPROX = "skipped_approx"
    EXACT_PRUNED = "exact_pruned"
    EXACT_NOT_SIGNIFICANT = "exact_not_significant"
    CALLED = "called"
    REJECTED_FILTER = "rejected_filter"


@dataclasses.dataclass
class VariantCall:
    """One called single-nucleotide variant.

    Attributes:
        chrom/pos/ref/alt: variant identity (pos is 0-based).
        pvalue: raw Poisson-binomial tail p-value.
        corrected_pvalue: Bonferroni-corrected p-value (capped at 1).
        depth: column depth after pileup filters.
        alt_count: reads supporting the alternate allele.
        af: alternate allele frequency ``alt_count / depth``.
        dp4: (ref-fwd, ref-rev, alt-fwd, alt-rev) strand counts.
        strand_bias: Phred-scaled Fisher strand-bias score.
        filter: filter status; ``PASS`` or semicolon-joined failures.
        used_exact: True when the exact DP produced ``pvalue`` (always
            true for calls -- the approximation can only skip).
    """

    chrom: str
    pos: int
    ref: str
    alt: str
    pvalue: float
    corrected_pvalue: float
    depth: int
    alt_count: int
    af: float
    dp4: Tuple[int, int, int, int]
    strand_bias: float
    filter: str = "PASS"
    used_exact: bool = True

    @property
    def key(self) -> Tuple[str, int, str, str]:
        """Variant identity for set algebra."""
        return (self.chrom, self.pos, self.ref, self.alt)

    @property
    def quality(self) -> float:
        """VCF QUAL: ``-10 log10`` of the raw p-value (capped)."""
        if self.pvalue <= 0.0:
            return 3000.0
        return min(3000.0, -10.0 * math.log10(self.pvalue))

    def to_vcf_record(self) -> VcfRecord:
        """Render this call as a :class:`VcfRecord` (DP/AF/SB/DP4 INFO)."""
        return VcfRecord(
            chrom=self.chrom,
            pos=self.pos,
            ref=self.ref,
            alt=self.alt,
            qual=self.quality,
            filter=self.filter,
            info={
                "DP": self.depth,
                "AF": round(self.af, 6),
                "SB": int(round(self.strand_bias)),
                "DP4": self.dp4,
            },
        )


@dataclasses.dataclass
class RunStats:
    """Operational counters for one calling run.

    All counters are additive so partial results from parallel workers
    merge with :meth:`merge`.
    """

    columns_seen: int = 0
    tests_run: int = 0
    decisions: Dict[str, int] = dataclasses.field(default_factory=dict)
    dp_steps: int = 0
    dp_invocations: int = 0
    approx_invocations: int = 0
    exact_skipped: int = 0
    time_stats: float = 0.0
    time_total: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0

    def record_decision(self, decision: ColumnDecision) -> None:
        """Count one per-column decision in the census."""
        self.decisions[decision.value] = self.decisions.get(decision.value, 0) + 1

    def record_decisions(self, decision: ColumnDecision, count: int) -> None:
        """Bulk form of :meth:`record_decision` for the columnar
        engine; a zero count leaves the census untouched (no key is
        created), exactly like zero scalar calls would."""
        if count:
            self.decisions[decision.value] = (
                self.decisions.get(decision.value, 0) + int(count)
            )

    def merge(self, other: "RunStats") -> "RunStats":
        """Accumulate another worker's counters into this one: every
        numeric field adds, and the decision census adds per key."""
        for field in dataclasses.fields(self):
            if field.name == "decisions":
                for k, v in other.decisions.items():
                    self.decisions[k] = self.decisions.get(k, 0) + v
            else:
                setattr(
                    self,
                    field.name,
                    getattr(self, field.name) + getattr(other, field.name),
                )
        return self

    def skip_fraction(self) -> float:
        """Fraction of run tests resolved by the approximation alone."""
        if self.tests_run == 0:
            return 0.0
        return self.exact_skipped / self.tests_run

    def cache_hit_rate(self) -> float:
        """Fraction of BGZF block fetches served from the reader-side
        decompressed-block LRU (0.0 when no fetches were counted)."""
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable snapshot of every counter.

        Values are coerced to plain ``int``/``float`` so the result is
        directly ``json.dump``-able (counters may arrive as numpy
        scalars from the batched engine).  Consumed by the pipeline's
        ``StatsSink``, the CLI's ``--stats-json`` and the benchmark
        report files.  Every field appears under its own name, plus the
        derived ``skip_fraction`` and ``cache_hit_rate``.
        """
        out: Dict[str, object] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.name == "decisions":
                out["decisions"] = {k: int(v) for k, v in sorted(value.items())}
            else:
                # the default's type: int for counters, float for seconds
                out[field.name] = type(field.default)(value)
        out["skip_fraction"] = float(self.skip_fraction())
        out["cache_hit_rate"] = float(self.cache_hit_rate())
        return out


@dataclasses.dataclass
class CallResult:
    """Output of a calling run: the calls plus operational stats."""

    calls: List[VariantCall]
    stats: RunStats

    @property
    def passed(self) -> List[VariantCall]:
        """Calls whose filter field is PASS."""
        return [c for c in self.calls if c.filter == "PASS"]

    def keys(self) -> set:
        """PASS variant identity set (for concordance / upset work)."""
        return {c.key for c in self.passed}

    def merge(self, other: "CallResult") -> "CallResult":
        """Concatenate calls (re-sorted by position) and merge stats."""
        merged = sorted(self.calls + other.calls, key=lambda c: (c.chrom, c.pos))
        self.calls = merged
        self.stats.merge(other.stats)
        return self
