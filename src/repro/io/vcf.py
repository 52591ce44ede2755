"""VCF 4.2 output for variant calls (LoFreq-style).

LoFreq writes SNVs with ``QUAL = -10 log10(p-value)`` and INFO fields
``DP`` (raw depth), ``AF`` (allele frequency), ``SB`` (strand-bias
Phred score) and ``DP4`` (ref-fwd, ref-rev, alt-fwd, alt-rev counts).
This module reproduces that dialect plus a reader good enough to
round-trip our own output, which the analysis layer (upset plots,
concordance) consumes.
"""

from __future__ import annotations

import dataclasses
import io
import math
import os
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple, Union

from repro.io.errors import FormatError

__all__ = ["VcfRecord", "VcfWriter", "read_vcf", "write_vcf", "VCF_VERSION"]

PathOrFile = Union[str, os.PathLike, TextIO]

VCF_VERSION = "VCFv4.2"

_INFO_HEADERS = [
    '##INFO=<ID=DP,Number=1,Type=Integer,Description="Raw read depth">',
    '##INFO=<ID=AF,Number=1,Type=Float,Description="Allele frequency">',
    '##INFO=<ID=SB,Number=1,Type=Integer,Description='
    '"Phred-scaled strand bias at this position">',
    '##INFO=<ID=DP4,Number=4,Type=Integer,Description='
    '"Counts for ref-forward, ref-reverse, alt-forward, alt-reverse bases">',
    '##FILTER=<ID=PASS,Description="All filters passed">',
]


@dataclasses.dataclass
class VcfRecord:
    """One VCF data line.

    Attributes:
        chrom: reference name.
        pos: 0-based position (the text format is 1-based).
        ref: reference allele.
        alt: alternate allele.
        qual: Phred-scaled call quality, ``-10 log10(p)``.
        filter: filter field (``PASS`` / semicolon-joined failures / ``.``).
        info: INFO key-value mapping (values already stringified or
            plain Python scalars / tuples).
        id: the ID column (``.`` by default).
    """

    chrom: str
    pos: int
    ref: str
    alt: str
    qual: float
    filter: str = "PASS"
    info: Dict[str, object] = dataclasses.field(default_factory=dict)
    id: str = "."

    @property
    def key(self) -> Tuple[str, int, str, str]:
        """Identity of the variant: (chrom, pos, ref, alt)."""
        return (self.chrom, self.pos, self.ref, self.alt)

    def info_string(self) -> str:
        """The INFO column: ``;``-joined ``KEY=value`` pairs (flags as
        bare keys, floats at 6 significant digits), ``.`` when empty."""
        if not self.info:
            return "."
        parts = []
        for k, v in self.info.items():
            if v is True:
                parts.append(k)
            elif isinstance(v, float):
                parts.append(f"{k}={v:.6g}")
            elif isinstance(v, (tuple, list)):
                parts.append(f"{k}={','.join(str(x) for x in v)}")
            else:
                parts.append(f"{k}={v}")
        return ";".join(parts)

    def to_line(self) -> str:
        """The record as one tab-separated VCF data line (1-based
        POS; NaN QUAL rendered as ``.``), without the newline."""
        qual_s = "." if math.isnan(self.qual) else f"{self.qual:.6g}"
        return "\t".join(
            [
                self.chrom,
                str(self.pos + 1),
                self.id,
                self.ref,
                self.alt,
                qual_s,
                self.filter,
                self.info_string(),
            ]
        )

    @classmethod
    def from_line(cls, line: str) -> "VcfRecord":
        """Parse one data line.

        Raises:
            FormatError: if the line has fewer than 8 columns, a POS
                that is not an integer, or a QUAL that is neither ``.``
                nor a number.
        """
        fields = line.rstrip("\n").split("\t")
        if len(fields) < 8:
            raise FormatError(f"VCF line has {len(fields)} columns, expected >= 8")
        chrom, pos_s, id_, ref, alt, qual_s, filt, info_s = fields[:8]
        try:
            pos = int(pos_s) - 1
        except ValueError:
            raise FormatError(f"POS {pos_s!r} is not an integer") from None
        try:
            qual = float("nan") if qual_s == "." else float(qual_s)
        except ValueError:
            raise FormatError(f"QUAL {qual_s!r} is neither '.' nor a number") from None
        info: Dict[str, object] = {}
        if info_s != ".":
            for item in info_s.split(";"):
                if "=" in item:
                    k, v = item.split("=", 1)
                    if "," in v:
                        info[k] = tuple(_parse_scalar(x) for x in v.split(","))
                    else:
                        info[k] = _parse_scalar(v)
                else:
                    info[item] = True
        return cls(
            chrom=chrom,
            pos=pos,
            id=id_,
            ref=ref,
            alt=alt,
            qual=qual,
            filter=filt,
            info=info,
        )


def _parse_scalar(text: str) -> object:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


class VcfWriter:
    """Incremental VCF writer (the same dialect as :func:`write_vcf`).

    Headers are emitted on construction; records stream one at a time
    through :meth:`write`, so callers (the pipeline's ``VcfSink``) never
    have to materialise a whole record list.  Usable as a context
    manager; passing an open text handle leaves closing to the caller.
    """

    def __init__(
        self,
        dest: PathOrFile,
        *,
        reference: Optional[Sequence[Tuple[str, int]]] = None,
        source: str = "repro-lofreq",
        extra_headers: Optional[Sequence[str]] = None,
    ) -> None:
        self._owned = not hasattr(dest, "write")
        self._handle: TextIO = open(dest, "w") if self._owned else dest  # type: ignore[assignment]
        self.records_written = 0
        handle = self._handle
        handle.write(f"##fileformat={VCF_VERSION}\n")
        handle.write(f"##source={source}\n")
        if reference:
            for name, length in reference:
                handle.write(f"##contig=<ID={name},length={length}>\n")
        for line in _INFO_HEADERS:
            handle.write(line + "\n")
        for line in extra_headers or ():
            handle.write(line + "\n")
        handle.write("#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\n")

    def write(self, record: VcfRecord) -> None:
        """Append one record as a data line."""
        self._handle.write(record.to_line() + "\n")
        self.records_written += 1

    def close(self) -> None:
        """Close the underlying handle (only if this writer opened
        it; caller-provided handles stay open)."""
        if self._owned:
            self._handle.close()

    def __enter__(self) -> "VcfWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_vcf(
    dest: PathOrFile,
    records: Iterable[VcfRecord],
    *,
    reference: Optional[Sequence[Tuple[str, int]]] = None,
    source: str = "repro-lofreq",
    extra_headers: Optional[Sequence[str]] = None,
) -> int:
    """Write a VCF file; returns the number of records written."""
    writer = VcfWriter(
        dest, reference=reference, source=source, extra_headers=extra_headers
    )
    try:
        for rec in records:
            writer.write(rec)
    finally:
        writer.close()
    return writer.records_written


def read_vcf(source: PathOrFile) -> Tuple[List[str], List[VcfRecord]]:
    """Read a VCF file (a path, or a text or binary handle); returns
    ``(header_lines, records)``.

    Raises:
        FormatError: if a data line does not parse
            (:meth:`VcfRecord.from_line`) or the bytes are not UTF-8;
            the message names the line number, and the file when one
            was opened by path.
        OSError: if the path cannot be read.
    """
    where = ""
    if hasattr(source, "read"):
        data = source.read()
    else:
        where = f"{os.fspath(source)}: "
        with open(source, "rb") as handle:
            data = handle.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise FormatError(f"{where}line {line}: not UTF-8 text") from None
    headers: List[str] = []
    records: List[VcfRecord] = []
    for number, line in enumerate(io.StringIO(data, newline=None), 1):
        if line.startswith("#"):
            headers.append(line.rstrip("\n"))
        elif line.strip():
            try:
                records.append(VcfRecord.from_line(line))
            except FormatError as exc:
                raise FormatError(f"{where}line {number}: {exc}") from None
    return headers, records
