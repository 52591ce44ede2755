"""The variant caller: LoFreq's column loop with the paper's shortcut.

:class:`VariantCaller` drives the Figure 1b workflow over a stream of
pileup columns.  :meth:`~VariantCaller.call_columns` is the per-unit
evaluator the pipeline engine (:mod:`repro.pipeline`) schedules; it
returns raw significance calls, and
:meth:`repro.pipeline.Pipeline.run` applies the post-call filter to
the merged set.  To call a BAM, a read stream or a simulated sample,
build a :class:`~repro.pipeline.Pipeline` over the matching source.

The caller itself is deliberately single-threaded; parallel operation
is the job of the pipeline's :class:`~repro.pipeline.ExecutionPolicy`,
mirroring the paper's separation of the algorithm from its OpenMP
driver.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Union

from repro.core.batched import (
    BATCH_COLUMNS,
    evaluate_batch,
    evaluate_columns_batched,
)
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
        columns: Union[Iterable[PileupColumn], Iterable[ColumnBatch], ColumnBatch],
        region_length: int,
    ) -> CallResult:
        """Run the workflow over pre-built pileup columns.

        Args:
            columns: the work unit -- per-column
                :class:`PileupColumn` objects, structure-of-arrays
                :class:`~repro.pileup.column.ColumnBatch` spans, a
                single batch, or any mix, in any order (calls are
                re-sorted).
            region_length: Bonferroni scope -- the number of reference
                positions this run is responsible for.

        Returns the raw significance calls (every ``filter`` is
        ``"PASS"``): the post-call filter is fitted to a complete call
        set, so it runs once on the merged result in
        :meth:`repro.pipeline.Pipeline.run`, not per unit.

        The engine is picked by ``config.engine``: ``"streaming"``
        walks the columns one allele at a time (batches are unpacked
        through their per-column view); ``"batched"`` screens whole
        chunks in vectorised passes (:mod:`repro.core.batched`) before
        running the identical exact stage on the survivors --
        :class:`ColumnBatch` inputs feed the screen natively, loose
        columns are gathered into bounded slices first.
        """
        stats = RunStats()
        corrected_alpha = self.config.corrected_alpha(region_length)
        calls: List[VariantCall] = []
        if isinstance(columns, ColumnBatch):
            columns = (columns,)
        t0 = time.perf_counter()
        if self.config.engine == "batched":
            # Loose columns are consumed in bounded slices so memory
            # stays proportional to the batch, not the region (the
            # parallel driver already feeds chunk-sized units).  The
            # buffering stays outside the timer, mirroring the
            # streaming loop where generator advancement is not
            # charged to time_stats.
            iterator = iter(columns)
            buffer: List[PileupColumn] = []

            def flush() -> None:
                """Evaluate and drain the buffered slice of columns."""
                t_batch = time.perf_counter()
                calls.extend(
                    evaluate_columns_batched(
                        buffer, corrected_alpha, self.config, stats
                    )
                )
                stats.time_stats += time.perf_counter() - t_batch
                buffer.clear()

            for item in iterator:
                if isinstance(item, ColumnBatch):
                    if buffer:
                        flush()
                    t_batch = time.perf_counter()
                    calls.extend(
                        evaluate_batch(
                            item, corrected_alpha, self.config, stats
                        )
                    )
                    stats.time_stats += time.perf_counter() - t_batch
                    continue
                buffer.append(item)
                if len(buffer) >= BATCH_COLUMNS:
                    flush()
            if buffer:
                flush()
        else:
            for item in columns:
                unit = item.columns() if isinstance(item, ColumnBatch) else (item,)
                for column in unit:
                    t_col = time.perf_counter()
                    calls.extend(
                        evaluate_column(
                            column, corrected_alpha, self.config, stats
                        )
                    )
                    stats.time_stats += time.perf_counter() - t_col
        stats.time_total = time.perf_counter() - t0
        calls.sort(key=lambda c: (c.chrom, c.pos, c.alt))
        return CallResult(calls=calls, stats=stats)
