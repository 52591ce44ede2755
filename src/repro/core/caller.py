"""The variant caller: LoFreq's column loop with the paper's shortcut.

:class:`VariantCaller` drives the Figure 1b workflow over a stream of
work units.  :meth:`~VariantCaller.call_columns` is the per-unit
evaluator the pipeline engine (:mod:`repro.pipeline`) schedules, over
each engine's one unit type: :class:`~repro.pileup.column.ColumnBatch`
spans through :func:`~repro.core.batched.evaluate_batch`, or
:class:`~repro.pileup.column.PileupColumn` objects through
:func:`~repro.core.workflow.evaluate_column`.  It returns raw
significance calls, and :meth:`repro.pipeline.Pipeline.run` applies
the post-call filter to the merged set.  To call a BAM, a read stream
or a simulated sample, build a :class:`~repro.pipeline.Pipeline` over
the matching source.

The caller itself is deliberately single-threaded; parallel operation
is the job of the pipeline's :class:`~repro.pipeline.ExecutionPolicy`,
mirroring the paper's separation of the algorithm from its OpenMP
driver.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Union

from repro.core.batched import evaluate_batch
from repro.core.config import CallerConfig
from repro.core.results import CallResult, RunStats, VariantCall
from repro.core.workflow import evaluate_column
from repro.pileup.column import ColumnBatch, PileupColumn

__all__ = ["VariantCaller"]


class VariantCaller:
    """Quality-aware low-frequency SNV caller.

    Args:
        config: workflow parameters; defaults to the improved preset
            (the paper's version).  Use ``CallerConfig.original()``
            for the pre-paper behaviour.
    """

    def __init__(self, config: Optional[CallerConfig] = None) -> None:
        self.config = config or CallerConfig.improved()

    def call_columns(
        self,
        units: Union[Iterable[ColumnBatch], Iterable[PileupColumn]],
        region_length: int,
    ) -> CallResult:
        """Run the workflow over the engine's own work units.

        Args:
            units: the engine's own work units, in any order (calls
                are re-sorted): :class:`ColumnBatch` spans under
                ``config.engine == "batched"``, :class:`PileupColumn`
                objects under ``"streaming"``.
                :meth:`ColumnBatch.from_columns` packs loose columns
                for the first; :meth:`ColumnBatch.columns` unpacks a
                batch for the second.
            region_length: Bonferroni scope -- the number of reference
                positions this run is responsible for.

        Returns the raw significance calls (every ``filter`` is
        ``"PASS"``): the post-call filter is fitted to a complete call
        set, so it runs once on the merged result in
        :meth:`repro.pipeline.Pipeline.run`, not per unit.  Pulling
        the next unit is not charged to ``time_stats``.
        """
        batched = self.config.engine == "batched"
        evaluate = evaluate_batch if batched else evaluate_column
        stats = RunStats()
        corrected_alpha = self.config.corrected_alpha(region_length)
        calls: List[VariantCall] = []
        t0 = time.perf_counter()
        for unit in units:
            t_unit = time.perf_counter()
            calls.extend(evaluate(unit, corrected_alpha, self.config, stats))
            stats.time_stats += time.perf_counter() - t_unit
        stats.time_total = time.perf_counter() - t0
        calls.sort(key=lambda c: (c.chrom, c.pos, c.alt))
        return CallResult(calls=calls, stats=stats)
