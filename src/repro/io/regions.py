"""Genomic interval parsing and arithmetic.

Regions are half-open 0-based ``[start, end)`` internally; the textual
``chrom:start-end`` form is 1-based inclusive as in samtools.  The
parallel runtime partitions the genome into :class:`Region` chunks.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Container, List, Sequence, Tuple

__all__ = [
    "Region",
    "merge_regions",
    "parse_region",
    "resolve_region",
    "split_region",
]

_REGION_RE = re.compile(r"^([^:]+)(?::([\d,]+)(?:-([\d,]+))?)?$")


@dataclasses.dataclass(frozen=True, order=True)
class Region:
    """A half-open, 0-based genomic interval ``[start, end)``."""

    chrom: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"negative region start {self.start}")
        if self.end < self.start:
            raise ValueError(f"region end {self.end} before start {self.start}")

    def __len__(self) -> int:
        return self.end - self.start

    def __contains__(self, pos: int) -> bool:
        return self.start <= pos < self.end

    def overlaps(self, other: "Region") -> bool:
        """Whether two regions share at least one position."""
        return (
            self.chrom == other.chrom
            and self.start < other.end
            and other.start < self.end
        )

    def intersect(self, other: "Region") -> "Region | None":
        """The overlapping sub-interval, or ``None`` if disjoint."""
        if not self.overlaps(other):
            return None
        return Region(
            self.chrom, max(self.start, other.start), min(self.end, other.end)
        )

    def to_samtools(self) -> str:
        """Render as 1-based inclusive ``chrom:start-end`` text."""
        return f"{self.chrom}:{self.start + 1}-{self.end}"


def parse_region(text: str, reference_length: int | None = None) -> Region:
    """Parse samtools-style region text (1-based inclusive).

    Accepts ``chrom``, ``chrom:start`` and ``chrom:start-end`` with
    optional thousands separators.  A bare ``chrom`` spans the whole
    reference, which requires ``reference_length``.

    Raises:
        ValueError: on malformed text or a bare chromosome without a
            known length.
    """
    m = _REGION_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed region {text!r}")
    chrom, start_s, end_s = m.groups()
    if start_s is None:
        if reference_length is None:
            raise ValueError(
                f"region {text!r} has no coordinates and no reference "
                "length was supplied"
            )
        return Region(chrom, 0, reference_length)
    start = int(start_s.replace(",", "")) - 1
    if end_s is None:
        if reference_length is None:
            raise ValueError(
                f"open-ended region {text!r} requires a reference length"
            )
        end = reference_length
    else:
        end = int(end_s.replace(",", ""))
    if start < 0:
        raise ValueError(f"region {text!r} starts before position 1")
    return Region(chrom, start, end)


def resolve_region(
    text: str,
    contigs: Sequence[Tuple[str, int]],
    references: Container[str],
    reference_name: str,
) -> Region:
    """Resolve a caller-supplied region against a BAM and a reference.

    The one rule set behind ``call --region`` and the service's region
    requests: the contig must be one of the BAM header's ``contigs``
    (``(name, length)`` pairs) and one of ``references`` (named
    ``reference_name`` in errors); an end past the contig is clamped
    to its length, so the Bonferroni scope never counts positions the
    contig does not have.

    Raises:
        ValueError: on malformed text, a contig missing from the header
            or the reference, or a start at or past the contig's end.
    """
    lengths = dict(contigs)
    chrom = text.strip().split(":", 1)[0]
    if chrom not in lengths:
        raise ValueError(f"region contig {chrom!r} not in the BAM header")
    if chrom not in references:
        raise ValueError(f"region contig {chrom!r} not in {reference_name}")
    length = lengths[chrom]
    region = parse_region(text, reference_length=length)
    if region.start >= length:
        raise ValueError(
            f"region {text.strip()!r} starts past the end of {chrom!r} "
            f"({length} bp)"
        )
    return Region(chrom, region.start, min(region.end, length))


def split_region(region: Region, n_chunks: int) -> List[Region]:
    """Split a region into ``n_chunks`` near-equal contiguous pieces.

    The first ``len(region) % n_chunks`` pieces are one base longer, so
    the pieces tile the region exactly.  Empty pieces are never
    produced; if the region is shorter than ``n_chunks`` the result has
    ``len(region)`` single-base pieces.
    """
    if n_chunks <= 0:
        raise ValueError("n_chunks must be positive")
    total = len(region)
    n_chunks = min(n_chunks, total) if total > 0 else 1
    base = total // n_chunks
    extra = total % n_chunks
    out: List[Region] = []
    pos = region.start
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        out.append(Region(region.chrom, pos, pos + size))
        pos += size
    return out


def merge_regions(regions: Sequence[Region]) -> List[Region]:
    """Merge overlapping/adjacent regions into a minimal sorted cover."""
    by_chrom: dict[str, List[Region]] = {}
    for r in regions:
        by_chrom.setdefault(r.chrom, []).append(r)
    out: List[Region] = []
    for chrom in sorted(by_chrom):
        rs = sorted(by_chrom[chrom], key=lambda r: (r.start, r.end))
        cur = rs[0]
        for r in rs[1:]:
            if r.start <= cur.end:
                cur = Region(chrom, cur.start, max(cur.end, r.end))
            else:
                out.append(cur)
                cur = r
        out.append(cur)
    return out
