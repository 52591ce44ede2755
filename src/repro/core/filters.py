"""Post-call filtering, including LoFreq's *dynamic* filters.

LoFreq applies a filtering stage after calling: static thresholds
(minimum coverage, allele frequency) plus *dynamically determined*
ones -- most importantly the strand-bias filter, whose cutoff is a
Holm-Bonferroni correction computed **from the set of calls being
filtered**.  That data dependence is exactly what made the original
parallelisation wrapper buggy (Sandmann et al. 2017; paper Discussion):
each worker process filtered its own partition's calls (fitting
thresholds to the partition), and the merge script then filtered the
survivors *again* with thresholds fitted to the combined set.  Two
fits over different call sets => different cutoffs => results that
depend on the partitioning.

This module makes the bug reproducible and the fix testable:

* :class:`DynamicFilterPolicy.fit` derives thresholds from a call set;
* :func:`apply_filters` marks calls against given thresholds;
* :func:`filter_twice` is the legacy wrapper's fit+apply per partition
  and then again on the merged set (``ExecutionPolicy(mode="legacy")``
  in :mod:`repro.pipeline`), while :func:`filter_once` fits and
  applies exactly once on the full set (every other mode).
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence

from repro.core.results import VariantCall

__all__ = [
    "FilterThresholds",
    "DynamicFilterPolicy",
    "apply_filters",
    "filter_once",
    "filter_twice",
]


@dataclasses.dataclass(frozen=True)
class FilterThresholds:
    """Concrete cutoffs produced by fitting a policy to a call set.

    Attributes:
        sb_phred_cutoff: maximum allowed strand-bias Phred score; the
            Holm-corrected significance translated to the Phred scale.
        min_depth: minimum depth (static pass-through).
        min_af: minimum allele frequency (static pass-through).
        fitted_on: size of the call set the thresholds were fitted on
            (recorded so tests can assert the bug's mechanism).
    """

    sb_phred_cutoff: float
    min_depth: int
    min_af: float
    fitted_on: int


@dataclasses.dataclass(frozen=True)
class DynamicFilterPolicy:
    """LoFreq-style filter policy with a data-dependent strand-bias cutoff.

    Attributes:
        sb_alpha: family-wise error rate for the strand-bias test.
        min_depth: static minimum depth.
        min_af: static minimum allele frequency.
        holm: use Holm-Bonferroni (cutoff depends on the *number of
            calls*); plain Bonferroni when False.
    """

    sb_alpha: float = 0.001
    min_depth: int = 10
    min_af: float = 0.0
    holm: bool = True

    def fit(self, calls: Sequence[VariantCall]) -> FilterThresholds:
        """Derive thresholds from a call set.

        The strand-bias cutoff is ``-10 log10(sb_alpha / n)`` with
        ``n = len(calls)`` -- more calls means a stricter per-call
        level, hence a *higher* allowed Phred score.  This is the
        data dependence at the heart of the double-filtering bug: fit
        on a partition and you get a different cutoff than fitting on
        the full set.
        """
        n = max(1, len(calls))
        per_call_alpha = self.sb_alpha / n if self.holm else self.sb_alpha
        cutoff = -10.0 * math.log10(per_call_alpha)
        return FilterThresholds(
            sb_phred_cutoff=cutoff,
            min_depth=self.min_depth,
            min_af=self.min_af,
            fitted_on=len(calls),
        )


def apply_filters(
    calls: Sequence[VariantCall], thresholds: FilterThresholds
) -> List[VariantCall]:
    """Return re-labelled copies of ``calls`` judged against
    ``thresholds``; failures get a semicolon-joined FILTER string."""
    out: List[VariantCall] = []
    for call in calls:
        failures = []
        if call.strand_bias > thresholds.sb_phred_cutoff:
            failures.append("sb")
        if call.depth < thresholds.min_depth:
            failures.append("min_dp")
        if call.af < thresholds.min_af:
            failures.append("min_af")
        out.append(
            dataclasses.replace(
                call, filter=";".join(failures) if failures else "PASS"
            )
        )
    return out


def filter_once(
    calls: Sequence[VariantCall], policy: Optional[DynamicFilterPolicy] = None
) -> List[VariantCall]:
    """The correct, single-stage pipeline: fit on the complete call set,
    apply once.  This is what the OpenMP reorganisation guarantees."""
    pol = policy or DynamicFilterPolicy()
    return apply_filters(calls, pol.fit(calls))


def filter_twice(
    partitions: Sequence[Sequence[VariantCall]],
    policy: Optional[DynamicFilterPolicy] = None,
) -> List[VariantCall]:
    """The legacy wrapper's behaviour: filter each partition with
    thresholds fitted *to that partition*, merge only the survivors,
    then filter the merged set again with re-fitted thresholds.

    The output depends on how calls were partitioned -- the
    inconsistency reported in the variant-caller review the paper
    cites.  The pipeline's ``"legacy"`` execution mode runs it on
    per-partition raw calls, and tests and the ``bench_filterbug``
    harness call it directly to quantify the divergence.
    """
    pol = policy or DynamicFilterPolicy()
    survivors: List[VariantCall] = []
    for part in partitions:
        filtered = apply_filters(part, pol.fit(part))
        survivors.extend(c for c in filtered if c.filter == "PASS")
    survivors.sort(key=lambda c: (c.chrom, c.pos, c.alt))
    return apply_filters(survivors, pol.fit(survivors))
