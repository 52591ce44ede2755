"""Parallel execution building blocks (the paper's Section II-B).

The original LoFreq parallelised through an external wrapper script
(``lofreq2_call_pparallel.py``) that split the input, spawned an
independent process per partition and merged the outputs -- running
the dynamic filter stage once per partition *and again* on the merge,
the inconsistency bug the paper fixes.  The paper's experimental
branch replaces this with an OpenMP parallel-for over column chunks
with dynamic scheduling and one BAM reader per thread.

Both organisations live in :mod:`repro.pipeline.engine`: an
:class:`~repro.pipeline.ExecutionPolicy` picks the serial, thread or
process parallel-for (one final filter) or the ``"legacy"`` wrapper
model (double filter).  This package holds what they are built from:

* :mod:`repro.parallel.partition` -- genome chunking.
* :mod:`repro.parallel.scheduler` -- static / dynamic / guided chunk
  schedulers (OpenMP's three classic ``schedule()`` kinds).
* :mod:`repro.parallel.trace` -- per-worker event tracing and the
  ASCII timeline renderer behind the Figure 2 reproduction.
"""

from repro.parallel.partition import chunk_region, partition_region
from repro.parallel.scheduler import (
    DynamicScheduler,
    GuidedScheduler,
    StaticScheduler,
    make_scheduler,
)
from repro.parallel.trace import Category, TraceEvent, Tracer

__all__ = [
    "Category",
    "DynamicScheduler",
    "GuidedScheduler",
    "StaticScheduler",
    "TraceEvent",
    "Tracer",
    "chunk_region",
    "make_scheduler",
    "partition_region",
]
