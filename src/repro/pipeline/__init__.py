"""The composable calling pipeline: sources -> engine -> sinks.

Every calling workload is the same three-stage pipe:

* a **source** (:mod:`repro.pipeline.sources`) turns an input substrate
  -- BAM file, read stream, in-memory sample -- into work units by
  region (column batches for the batched engine, pileup columns for
  the streaming one), covering every contig of a multi-contig BAM;
* the **engine** (:mod:`repro.pipeline.engine`) evaluates the units
  under an :class:`ExecutionPolicy` (serial / thread / process / the
  deliberately buggy legacy demo) and post-filters the merged calls
  exactly once;
* **sinks** (:mod:`repro.pipeline.sinks`) stream the final calls out
  incrementally (VCF, JSON Lines, stats JSON, tee).

One entry point::

    from repro.pipeline import BamSource, Pipeline, VcfSink

    source = BamSource("sample.bam", load_reference("ref.fa"))
    result = Pipeline(
        source, sinks=[VcfSink("calls.vcf", contigs=source.contigs)]
    ).run()

This is the only way to call variants: a BAM, a read stream and a
simulated sample each have a source, and parallel and legacy runs are
an :class:`ExecutionPolicy`.
"""

from repro.pipeline.engine import ExecutionPolicy, Pipeline
from repro.pipeline.sinks import (
    CallSink,
    JsonlSink,
    StatsSink,
    TeeSink,
    VcfSink,
)
from repro.pipeline.sources import (
    BamSource,
    ColumnSource,
    ReadsSource,
    SampleSource,
)

__all__ = [
    "BamSource",
    "CallSink",
    "ColumnSource",
    "ExecutionPolicy",
    "JsonlSink",
    "Pipeline",
    "ReadsSource",
    "SampleSource",
    "StatsSink",
    "TeeSink",
    "VcfSink",
]
