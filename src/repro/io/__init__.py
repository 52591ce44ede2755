"""Sequence and alignment file formats, implemented from scratch.

This subpackage provides the substrate LoFreq gets from htslib:

* :mod:`repro.io.fasta` -- reference I/O.
* :mod:`repro.io.cigar` -- CIGAR string algebra.
* :mod:`repro.io.records` -- the in-memory alignment record model.
* :mod:`repro.io.bgzf` -- blocked-gzip (BGZF) compression with virtual
  offsets, the container format underneath BAM.
* :mod:`repro.io.bam` -- the binary BAM format (records round-trip
  byte-exactly through :mod:`repro.io.bgzf`).
* :mod:`repro.io.index` -- the unified
  :class:`~repro.io.index.RandomAccessIndex` region-seek API, the
  in-memory per-contig linear checkpoint index, both index builders
  and the ``.bai`` loader.
* :mod:`repro.io.bai` -- the standard BAI binning index, the one
  on-disk index format (reads and writes interoperable ``.bai``
  sidecars).
* :mod:`repro.io.vcf` -- variant call output in VCF 4.2.
* :mod:`repro.io.regions` -- genomic interval parsing and arithmetic.
* :class:`FormatError` -- the error every BAM record decoder raises on
  bytes that do not decode (a :class:`ValueError`).

Everything here is pure Python + NumPy; no htslib/pysam dependency.
"""

from repro.io.errors import FormatError
from repro.io.cigar import (
    CigarOp,
    cigar_to_string,
    parse_cigar,
    query_length,
    reference_length,
)
from repro.io.fasta import FastaRecord, read_fasta, write_fasta
from repro.io.records import FLAG_REVERSE, FLAG_UNMAPPED, AlignedRead, SamHeader
from repro.io.regions import Region, parse_region
from repro.io.bai import BaiIndex, build_bai, reg2bins
from repro.io.bam import read_bam, write_bam
from repro.io.bgzf import BgzfReader, BgzfWriter
from repro.io.index import (
    Chunk,
    LinearIndex,
    MultiContigIndex,
    RandomAccessIndex,
    build_bai_index,
    build_linear_index,
    load_index,
)
from repro.io.vcf import VcfRecord, read_vcf, write_vcf

__all__ = [
    "AlignedRead",
    "BaiIndex",
    "BgzfReader",
    "BgzfWriter",
    "Chunk",
    "CigarOp",
    "FLAG_REVERSE",
    "FLAG_UNMAPPED",
    "FastaRecord",
    "FormatError",
    "LinearIndex",
    "MultiContigIndex",
    "RandomAccessIndex",
    "Region",
    "SamHeader",
    "VcfRecord",
    "build_bai",
    "build_bai_index",
    "build_linear_index",
    "cigar_to_string",
    "load_index",
    "parse_cigar",
    "parse_region",
    "query_length",
    "read_bam",
    "reg2bins",
    "read_fasta",
    "read_vcf",
    "reference_length",
    "write_bam",
    "write_fasta",
    "write_vcf",
]
