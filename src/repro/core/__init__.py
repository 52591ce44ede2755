"""The paper's core contribution: the accelerated LoFreq-style caller.

* :mod:`repro.core.config` -- :class:`CallerConfig` with the
  ``original()`` / ``improved()`` presets the paper compares.
* :mod:`repro.core.model` -- the quality-implied error model.
* :mod:`repro.core.workflow` -- the Figure 1b decision workflow
  (Poisson first-pass filter -> exact Poisson-binomial DP).
* :mod:`repro.core.batched` -- the chunk-level engine: one vectorised
  screening pass over every (column, allele) pair, exact DP only for
  the survivors (identical output, ``engine="batched"``).
* :mod:`repro.core.caller` -- :class:`VariantCaller`, the column loop
  over any pileup substrate.
* :mod:`repro.core.filters` -- post-call filtering, including the
  dynamic strand-bias filter whose data dependence caused the legacy
  parallel double-filtering bug.
* :mod:`repro.core.results` -- :class:`VariantCall`, :class:`RunStats`
  and :class:`CallResult`.
"""

from repro.core.batched import evaluate_batch, exact_batch, screen_batch
from repro.core.caller import VariantCaller
from repro.core.config import CallerConfig
from repro.core.filters import (
    DynamicFilterPolicy,
    FilterThresholds,
    apply_filters,
    filter_once,
    filter_twice,
)
from repro.core.results import CallResult, ColumnDecision, RunStats, VariantCall
from repro.core.workflow import (
    AlleleOutcome,
    decide_allele,
    evaluate_column,
    exact_allele_decision,
)

__all__ = [
    "AlleleOutcome",
    "CallResult",
    "CallerConfig",
    "ColumnDecision",
    "DynamicFilterPolicy",
    "FilterThresholds",
    "RunStats",
    "VariantCall",
    "VariantCaller",
    "apply_filters",
    "decide_allele",
    "evaluate_batch",
    "evaluate_column",
    "exact_allele_decision",
    "exact_batch",
    "screen_batch",
    "filter_once",
    "filter_twice",
]
