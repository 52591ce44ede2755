"""repro: low-frequency variant calling on ultra-deep sequencing data.

A from-scratch Python reproduction of *"Accelerating SARS-CoV-2 low
frequency variant calling on ultra deep sequencing datasets"*
(Kille et al., 2021, arXiv:2105.03062): a LoFreq-style quality-aware
SNV caller accelerated by a Poisson-approximation first-pass filter,
an OpenMP-style shared-memory parallel runtime that fixes the legacy
double-filtering bug, and every substrate the pipeline needs (BAM /
BGZF / VCF codecs, a pileup engine, a calibrated read simulator,
Poisson-binomial statistics, a cache simulator and trace profiling).

Quickstart::

    from repro import (CallerConfig, Pipeline, SampleSource,
                       sars_cov_2_like, random_panel, ReadSimulator)

    genome = sars_cov_2_like(length=2000)
    panel = random_panel(genome.sequence, 10, seed=7)
    sample = ReadSimulator(genome, panel).simulate(depth=500, seed=7)
    result = Pipeline(SampleSource(sample),
                      config=CallerConfig.improved()).run()
    for call in result.passed:
        print(call.pos, call.ref, call.alt, f"AF={call.af:.4f}")
"""

from repro.core import (
    CallResult,
    CallerConfig,
    ColumnDecision,
    DynamicFilterPolicy,
    RunStats,
    VariantCall,
    VariantCaller,
)
from repro.io.regions import Region
from repro.pileup import PileupColumn, PileupConfig, pileup
from repro.pipeline import (
    BamSource,
    ExecutionPolicy,
    JsonlSink,
    Pipeline,
    ReadsSource,
    SampleSource,
    StatsSink,
    TeeSink,
    VcfSink,
)
from repro.sim import (
    MapqProfile,
    QualityModel,
    ReadSimulator,
    SimulatedSample,
    VariantPanel,
    VariantSpec,
    paper_dataset_suite,
    random_genome,
    random_panel,
    sars_cov_2_like,
)

__version__ = "1.0.0"

__all__ = [
    "BamSource",
    "CallResult",
    "CallerConfig",
    "ColumnDecision",
    "DynamicFilterPolicy",
    "ExecutionPolicy",
    "JsonlSink",
    "Pipeline",
    "MapqProfile",
    "PileupColumn",
    "PileupConfig",
    "QualityModel",
    "ReadSimulator",
    "ReadsSource",
    "Region",
    "RunStats",
    "SampleSource",
    "SimulatedSample",
    "StatsSink",
    "TeeSink",
    "VariantCall",
    "VariantCaller",
    "VariantPanel",
    "VariantSpec",
    "VcfSink",
    "__version__",
    "paper_dataset_suite",
    "pileup",
    "random_genome",
    "random_panel",
    "sars_cov_2_like",
]
