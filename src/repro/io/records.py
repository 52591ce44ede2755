"""In-memory alignment record and header models.

:class:`AlignedRead` is the single record type flowing through the whole
pipeline: the simulator produces them, the BAM codec (de)serialises
them, and the pileup engine consumes them.  Base qualities are stored as
a ``numpy.uint8`` array of Phred scores (*not* ASCII), which is the
representation the statistics layer wants.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.io.cigar import (
    CigarOp,
    cigar_to_string,
    parse_cigar,
    query_length,
    reference_length,
    validate_cigar,
)

__all__ = [
    "AlignedRead",
    "SamHeader",
    "FLAG_PAIRED",
    "FLAG_PROPER_PAIR",
    "FLAG_UNMAPPED",
    "FLAG_MATE_UNMAPPED",
    "FLAG_REVERSE",
    "FLAG_MATE_REVERSE",
    "FLAG_READ1",
    "FLAG_READ2",
    "FLAG_SECONDARY",
    "FLAG_QCFAIL",
    "FLAG_DUPLICATE",
    "FLAG_SUPPLEMENTARY",
]

FLAG_PAIRED = 0x1
FLAG_PROPER_PAIR = 0x2
FLAG_UNMAPPED = 0x4
FLAG_MATE_UNMAPPED = 0x8
FLAG_REVERSE = 0x10
FLAG_MATE_REVERSE = 0x20
FLAG_READ1 = 0x40
FLAG_READ2 = 0x80
FLAG_SECONDARY = 0x100
FLAG_QCFAIL = 0x200
FLAG_DUPLICATE = 0x400
FLAG_SUPPLEMENTARY = 0x800


@dataclasses.dataclass
class SamHeader:
    """A minimal SAM/BAM header.

    Attributes:
        references: ordered ``(name, length)`` pairs (the ``@SQ`` lines).
        read_groups: read-group dictionaries (the ``@RG`` lines).
        programs: program dictionaries (the ``@PG`` lines).
        sort_order: value of ``@HD SO:`` -- the pileup engine requires
            ``"coordinate"``.
        comments: free-text ``@CO`` lines.
    """

    references: List[Tuple[str, int]] = dataclasses.field(default_factory=list)
    read_groups: List[Dict[str, str]] = dataclasses.field(default_factory=list)
    programs: List[Dict[str, str]] = dataclasses.field(default_factory=list)
    sort_order: str = "unknown"
    comments: List[str] = dataclasses.field(default_factory=list)

    def reference_id(self, name: str) -> int:
        """Index of ``name`` in the reference list (-1 if absent)."""
        for i, (rname, _len) in enumerate(self.references):
            if rname == name:
                return i
        return -1

    def reference_length(self, name: str) -> int:
        """Length of the named reference.

        Raises:
            KeyError: if the reference is not declared in the header.
        """
        rid = self.reference_id(name)
        if rid < 0:
            raise KeyError(f"reference {name!r} not in header")
        return self.references[rid][1]

    def to_text(self) -> str:
        """Render the header as SAM ``@`` lines (with trailing newline)."""
        lines = [f"@HD\tVN:1.6\tSO:{self.sort_order}"]
        for name, length in self.references:
            lines.append(f"@SQ\tSN:{name}\tLN:{length}")
        for rg in self.read_groups:
            lines.append("@RG\t" + "\t".join(f"{k}:{v}" for k, v in rg.items()))
        for pg in self.programs:
            lines.append("@PG\t" + "\t".join(f"{k}:{v}" for k, v in pg.items()))
        for co in self.comments:
            lines.append(f"@CO\t{co}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SamHeader":
        """Parse SAM ``@`` header lines into a :class:`SamHeader`."""
        hdr = cls()
        for line in text.splitlines():
            if not line.startswith("@"):
                continue
            fields = line.rstrip("\n").split("\t")
            tag = fields[0]
            if tag == "@HD":
                for f in fields[1:]:
                    if f.startswith("SO:"):
                        hdr.sort_order = f[3:]
            elif tag == "@SQ":
                name = ""
                length = 0
                for f in fields[1:]:
                    if f.startswith("SN:"):
                        name = f[3:]
                    elif f.startswith("LN:"):
                        length = int(f[3:])
                hdr.references.append((name, length))
            elif tag == "@RG":
                hdr.read_groups.append(
                    {f[:2]: f[3:] for f in fields[1:] if len(f) >= 3}
                )
            elif tag == "@PG":
                hdr.programs.append(
                    {f[:2]: f[3:] for f in fields[1:] if len(f) >= 3}
                )
            elif tag == "@CO":
                hdr.comments.append("\t".join(fields[1:]))
        return hdr


@dataclasses.dataclass
class AlignedRead:
    """One aligned (or unmapped) sequencing read.

    Attributes:
        qname: read name.
        flag: SAM bitwise flag.
        rname: reference sequence name (``"*"`` when unmapped).
        pos: 0-based leftmost reference coordinate (-1 when unmapped).
            Note SAM text is 1-based; conversion happens in the codec.
        mapq: mapping quality (255 = unavailable).
        cigar: list of ``(CigarOp, length)``.
        seq: read bases, uppercase ACGTN.
        qual: Phred base qualities as ``numpy.uint8`` (same length as
            ``seq``).
        rnext/pnext/tlen: mate fields.
        tags: optional SAM tags ``{tag: (type_char, value)}``.
    """

    qname: str
    flag: int
    rname: str
    pos: int
    mapq: int
    cigar: List[Tuple[CigarOp, int]]
    seq: str
    qual: np.ndarray
    rnext: str = "*"
    pnext: int = -1
    tlen: int = 0
    tags: Dict[str, Tuple[str, Any]] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        self.qual = np.asarray(self.qual, dtype=np.uint8)
        if len(self.seq) != len(self.qual) and len(self.qual) != 0:
            raise ValueError(
                f"SEQ length {len(self.seq)} != QUAL length {len(self.qual)}"
            )
        if self.cigar:
            validate_cigar(self.cigar, seq_len=len(self.seq) or None)

    # -- flag predicates -------------------------------------------------

    @property
    def is_unmapped(self) -> bool:
        """True if the read did not align (FLAG 0x4)."""
        return bool(self.flag & FLAG_UNMAPPED)

    @property
    def is_reverse(self) -> bool:
        """True if the read aligned to the reverse strand."""
        return bool(self.flag & FLAG_REVERSE)

    @property
    def is_secondary(self) -> bool:
        """True for a secondary alignment (FLAG 0x100)."""
        return bool(self.flag & FLAG_SECONDARY)

    @property
    def is_duplicate(self) -> bool:
        """True for a PCR/optical duplicate (FLAG 0x400)."""
        return bool(self.flag & FLAG_DUPLICATE)

    @property
    def is_qcfail(self) -> bool:
        """True if the read failed platform QC (FLAG 0x200)."""
        return bool(self.flag & FLAG_QCFAIL)

    @property
    def is_supplementary(self) -> bool:
        """True for a supplementary alignment (FLAG 0x800)."""
        return bool(self.flag & FLAG_SUPPLEMENTARY)

    @property
    def is_primary(self) -> bool:
        """Primary, mapped alignment usable for variant calling."""
        return not (
            self.is_unmapped or self.is_secondary or self.is_supplementary
        )

    # -- coordinates ------------------------------------------------------

    @property
    def reference_end(self) -> int:
        """0-based exclusive end coordinate on the reference."""
        return self.pos + reference_length(self.cigar)

    @property
    def query_length(self) -> int:
        """Length of SEQ implied by the CIGAR (== ``len(seq)``)."""
        return query_length(self.cigar) if self.cigar else len(self.seq)

    @property
    def cigar_string(self) -> str:
        """The CIGAR rendered as text (``*`` when absent)."""
        return cigar_to_string(self.cigar)

    def overlaps(self, start: int, end: int) -> bool:
        """Whether the aligned span intersects ``[start, end)``."""
        return not self.is_unmapped and self.pos < end and self.reference_end > start

    # -- construction helpers ---------------------------------------------

    @classmethod
    def simple(
        cls,
        qname: str,
        rname: str,
        pos: int,
        seq: str,
        qual: Sequence[int] | np.ndarray,
        *,
        reverse: bool = False,
        mapq: int = 60,
        cigar: Optional[str] = None,
    ) -> "AlignedRead":
        """Build an ungapped (all-``M``) alignment; the common case for
        simulated short reads."""
        flag = FLAG_REVERSE if reverse else 0
        parsed = parse_cigar(cigar) if cigar else [(CigarOp.M, len(seq))]
        return cls(
            qname=qname,
            flag=flag,
            rname=rname,
            pos=pos,
            mapq=mapq,
            cigar=parsed,
            seq=seq,
            qual=np.asarray(qual, dtype=np.uint8),
        )

    def sort_key(self, header: SamHeader) -> Tuple[int, int]:
        """Coordinate sort key (reference index, position)."""
        rid = header.reference_id(self.rname) if self.rname != "*" else 1 << 30
        return (rid if rid >= 0 else 1 << 30, self.pos)
