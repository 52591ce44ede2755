"""Pileup: turning sorted alignments into per-position base columns.

LoFreq is a column-at-a-time caller; everything it looks at is a
"pileup column" -- the multiset of (base, quality, strand) observed at
one reference position across all overlapping reads.  This subpackage
is the equivalent of ``samtools mpileup``:

* :mod:`repro.pileup.column` -- the :class:`PileupColumn` value type
  with base encoding, counting and quality->probability conversion,
  the structure-of-arrays :class:`ColumnBatch` span of columns (the
  columnar pipeline's native interchange type), and
  :data:`BATCH_COLUMNS`, the one batch window size.
* :mod:`repro.pileup.engine` -- the streaming sweep over
  coordinate-sorted reads, with flag/quality filtering and the depth
  cap (LoFreq defaults to 1,000,000 -- see Table I's footnote).
* :mod:`repro.pileup.vectorized` -- bulk columnar construction: the
  counting and stable-sort deposit kernels behind read matrices and
  raw BAM record spans, and the incremental bounded-memory
  :class:`ColumnBatchBuilder` for alignment streams, which encodes
  each read as a BAM record and deposits a window of them as one
  span (construction memory is one window, not one chunk).
"""

from repro.pileup.column import (
    BASES,
    BASE_TO_CODE,
    CODE_TO_BASE,
    ColumnBatch,
    PileupColumn,
)
from repro.pileup.engine import PileupConfig, pileup
from repro.pileup.vectorized import ColumnBatchBuilder, iter_pileup_batches

__all__ = [
    "BASES",
    "BASE_TO_CODE",
    "CODE_TO_BASE",
    "ColumnBatch",
    "ColumnBatchBuilder",
    "PileupColumn",
    "PileupConfig",
    "iter_pileup_batches",
    "pileup",
]
