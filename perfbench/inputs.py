"""Seeded benchmark inputs: simulated BAM + FASTA per workload.

Every input is a pure function of ``(workload, seed)``.  The seed picks
genome sequence, variant panel and reads; sizes and per-contig depths
are fixed per workload, so the amount of work does not vary with the
seed and run-to-run spread measures the program, not the input.

Reads come from the repository's own simulator (:mod:`repro.sim`), the
same recipe as ``repro-lofreq simulate``, and are written with its
``BamWriter``.
"""

from __future__ import annotations

import hashlib
import os
from typing import Sequence, Tuple

#: Influenza A segment names with their lengths halved (~6.8 kb in all,
#: ~66k reads at the depths below), so the serial streaming-engine
#: oracle of one run stays near ten seconds on a 2-core machine.
SEGMENTS: Tuple[Tuple[str, int], ...] = (
    ("PB2", 1170),
    ("PB1", 1170),
    ("PA", 1116),
    ("HA", 889),
    ("NP", 782),
    ("NA", 706),
    ("M", 513),
    ("NS", 445),
)

#: Fixed per-segment depths for ``skewed_process2``: a 10x ladder,
#: deepest on the shortest segment.
SEGMENT_DEPTHS: Tuple[float, ...] = (300, 417, 580, 807, 1122, 1560, 2170, 3000)

READ_LENGTH = 100


def _derive(seed: int, *salt: object) -> int:
    """A 32-bit sub-seed from the workload seed and a salt."""
    text = ":".join([str(seed), *map(str, salt)]).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little")


def write_bam(path: str, samples: Sequence) -> None:
    """Write coordinate-sorted samples (one per contig, in order) as one
    BAM with the repository's ``BamWriter``."""
    from repro.io.bam import BamWriter
    from repro.io.records import SamHeader

    header = SamHeader(sort_order="coordinate")
    header.references.extend((s.genome.name, len(s.genome)) for s in samples)
    header.programs.append({"ID": "repro-sim", "PN": "repro-sim"})
    with BamWriter(path, header, compress_threads=2) as writer:
        for sample in samples:
            for read in sample.reads():
                writer.write(read)


def _simulate(genome, n_variants: int, depth: float, seed: int):
    """The ``repro-lofreq simulate`` recipe for one contig."""
    from repro.sim import ReadSimulator, random_panel

    panel = random_panel(
        genome.sequence, n_variants, freq_range=(0.01, 0.10), seed=seed
    )
    simulator = ReadSimulator(genome, panel, read_length=READ_LENGTH)
    return simulator.simulate(depth, seed=seed)


def _single_contig(seed: int, length: int, depth: float, n_variants: int):
    from repro.sim import sars_cov_2_like

    genome = sars_cov_2_like(length=length, seed=seed)
    return [_simulate(genome, n_variants, depth, seed)]


def _segments(seed: int):
    from repro.sim.genome import random_genome

    samples = []
    for (name, length), depth in zip(SEGMENTS, SEGMENT_DEPTHS):
        sub = _derive(seed, name)
        genome = random_genome(
            length, gc_content=0.43, name=name, description="segment", seed=sub
        )
        samples.append(_simulate(genome, 20, depth, sub))
    return samples


#: workload -> sample builder
RECIPES = {
    "skewed_process2": _segments,
    "region_service": lambda seed: _single_contig(seed, 6000, 1000, 12),
}


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def generate(workload: str, seed: int, workdir: str) -> dict:
    """Generate ``workload``'s inputs for ``seed`` into ``workdir``.

    Returns the file paths, a digest of both files, the inputs' shape,
    and per contig the sorted 0-based read starts (every read is
    ``READ_LENGTH`` bases, all aligned)."""
    from repro.io.fasta import write_fasta

    samples = RECIPES[workload](seed)
    bam = os.path.join(workdir, "input.bam")
    fasta = os.path.join(workdir, "input.fa")
    write_bam(bam, samples)
    write_fasta(fasta, [s.genome for s in samples])
    digest = hashlib.sha256(
        (_file_digest(bam) + _file_digest(fasta)).encode()
    ).hexdigest()
    shape = {
        "reads": int(sum(s.n_reads for s in samples)),
        "bam_bytes": os.path.getsize(bam),
        "contigs": len(samples),
        "genome_bases": int(sum(len(s.genome) for s in samples)),
        "contig_lengths": {s.genome.name: len(s.genome) for s in samples},
        "depth_per_contig": {
            s.genome.name: round(s.mean_depth, 1) for s in samples
        },
        "truth_variants": int(sum(len(s.panel) for s in samples)),
    }
    return {
        "bam": bam,
        "fasta": fasta,
        "digest": digest,
        "shape": shape,
        "starts": {s.genome.name: s.starts.tolist() for s in samples},
    }
