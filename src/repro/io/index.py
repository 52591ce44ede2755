"""The unified random-access API: one ``chunks_for`` for every index.

The :class:`RandomAccessIndex` protocol asks every index one
question -- *which file ranges can hold records overlapping*
``[start, end)`` *of this contig?* -- answered as a list of
:class:`Chunk` virtual-offset ranges:

* :class:`~repro.io.linear_index.LinearIndex` answers with one
  open-ended chunk starting at its checkpoint scan offset;
* :class:`MultiContigIndex` (one linear index per contig) routes to
  the right contig's linear index;
* :class:`~repro.io.bai.BaiIndex` answers with the real binned seek
  plan -- several tight ranges instead of one suffix scan.

:class:`~repro.pipeline.sources.BamSource` consumes any of them
uniformly; equivalence tests pin the three to byte-identical calls.

Builders and the sidecar loader live here too:
:func:`build_linear_index` (the per-contig linear index, whose
sidecar is ``RMI1``), :func:`build_bai_index` and the magic-sniffing
:func:`load_index`.
"""

from __future__ import annotations

import struct
from typing import (
    BinaryIO,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.io.linear_index import LinearIndex, _scan_linear

__all__ = [
    "Chunk",
    "MAX_VOFFSET",
    "MultiContigIndex",
    "RandomAccessIndex",
    "build_bai_index",
    "build_linear_index",
    "load_index",
]

#: Open-ended chunk sentinel: no virtual offset compares above it, so
#: a ``Chunk(v, MAX_VOFFSET)`` means "scan from ``v`` until the region
#: (or file) ends" -- the linear indexes' answer shape.
MAX_VOFFSET = (1 << 63) - 1

_MULTI_MAGIC = b"RMI1"


def _read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    """Read exactly ``n`` bytes of a sidecar index from ``fh``.

    Raises:
        ValueError: ``"truncated <what>"`` when the file ends first, so
            a short sidecar never surfaces as a ``struct.error``.
    """
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"truncated {what}")
    return data


class Chunk(NamedTuple):
    """One file range of a seek plan: ``[vbegin, vend)`` in virtual
    offsets (see :func:`repro.io.bgzf.make_virtual_offset`)."""

    vbegin: int
    vend: int


@runtime_checkable
class RandomAccessIndex(Protocol):
    """Anything that can plan region seeks into a coordinate-sorted BAM.

    Implementations: :class:`~repro.io.linear_index.LinearIndex`
    (single contig), :class:`MultiContigIndex` (one linear index per
    contig) and :class:`~repro.io.bai.BaiIndex` (the standard binning
    scheme).
    """

    def contigs(self) -> Sequence[str]:
        """Contig names the index can answer queries for."""
        ...

    def chunks_for(self, contig: str, start: int, end: int) -> List[Chunk]:
        """Ascending, non-overlapping virtual-offset ranges that
        together cover every record overlapping ``[start, end)`` of
        ``contig``; empty when the contig has no (indexed) records.

        A scan of the plan visits records in coordinate order (the
        ranges are ascending over a coordinate-sorted file), so
        consumers may stream the chunks back to back.  Ranges may
        include records *outside* the query (bins are coarse; linear
        indexes are suffixes): consumers still filter by position,
        they just no longer scan from the start of the contig.
        """
        ...


class MultiContigIndex(Mapping):
    """One :class:`~repro.io.linear_index.LinearIndex` per contig.

    A :class:`RandomAccessIndex` that is also a read-only
    :class:`~collections.abc.Mapping` (``index["chr1"]``,
    ``index.get``, iteration) over the per-contig tables.

    Args:
        per_contig: ``{contig name: LinearIndex}``; contigs without
            records are simply absent.
    """

    def __init__(self, per_contig: Mapping[str, LinearIndex]) -> None:
        self._per_contig: Dict[str, LinearIndex] = dict(per_contig)

    def __getitem__(self, contig: str) -> LinearIndex:
        """The named contig's linear index."""
        return self._per_contig[contig]

    def __iter__(self) -> Iterator[str]:
        """Iterate contig names (insertion = header order)."""
        return iter(self._per_contig)

    def __len__(self) -> int:
        """Number of indexed contigs."""
        return len(self._per_contig)

    def contigs(self) -> List[str]:
        """Contig names with at least one indexed record."""
        return list(self._per_contig)

    def chunks_for(self, contig: str, start: int, end: int) -> List[Chunk]:
        """Route the query to the contig's linear index (empty plan
        for unknown contigs -- they have no records)."""
        index = self._per_contig.get(contig)
        if index is None:
            return []
        return index.chunks_for(contig, start, end)

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """Write a multi-contig sidecar (magic ``RMI1``): per contig a
        length-prefixed name plus the linear-index table."""
        with open(path, "wb") as fh:
            fh.write(_MULTI_MAGIC)
            fh.write(struct.pack("<i", len(self._per_contig)))
            for name, index in self._per_contig.items():
                raw = name.encode("utf-8")
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
                fh.write(
                    struct.pack(
                        "<qqq",
                        index.max_read_span,
                        index.data_start,
                        len(index.checkpoints),
                    )
                )
                for pos, voffset in index.checkpoints:
                    fh.write(struct.pack("<qq", pos, voffset))

    @classmethod
    def load(cls, path) -> "MultiContigIndex":
        """Load a sidecar written by :meth:`save`.

        Raises:
            ValueError: if the file is not a multi-contig index, is
                truncated or has a negative count.
        """
        what = f"linear index {path}"
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != _MULTI_MAGIC:
                raise ValueError(
                    f"not a multi-contig linear index (magic {magic!r})"
                )
            (n,) = struct.unpack("<i", _read_exact(fh, 4, what))
            if n < 0:
                raise ValueError(f"negative contig count {n} in {what}")
            per_contig: Dict[str, LinearIndex] = {}
            for _ in range(n):
                (name_len,) = struct.unpack("<H", _read_exact(fh, 2, what))
                name = _read_exact(fh, name_len, what).decode("utf-8")
                max_span, data_start, n_cp = struct.unpack(
                    "<qqq", _read_exact(fh, 24, what)
                )
                if n_cp < 0:
                    raise ValueError(
                        f"negative checkpoint count {n_cp} in {what}"
                    )
                cps = [
                    struct.unpack("<qq", _read_exact(fh, 16, what))
                    for _ in range(n_cp)
                ]
                per_contig[name] = LinearIndex(
                    checkpoints=cps,
                    max_read_span=max_span,
                    data_start=data_start,
                )
        return cls(per_contig)


def build_linear_index(bam_path, granularity: int = 256) -> MultiContigIndex:
    """Scan a BAM once and build the per-contig linear multi-index.

    :class:`~repro.pipeline.BamSource`'s default index: every
    ``granularity``-th record per contig contributes a ``(position,
    virtual offset)`` checkpoint, queries answer with one open-ended
    suffix chunk.  For the real
    O(log) binned plan, build :func:`build_bai_index` instead.

    Args:
        bam_path: coordinate-sorted BAM to scan.
        granularity: records per checkpoint (positive).

    Raises:
        ValueError: if ``granularity`` is not positive or the BAM is
            not coordinate-sorted.
    """
    return MultiContigIndex(_scan_linear(bam_path, granularity))


def build_bai_index(bam_path):
    """Scan a BAM once and build its standard BAI binning index
    (:class:`~repro.io.bai.BaiIndex`, names attached, query-ready).

    Args:
        bam_path: coordinate-sorted BAM to scan.

    Raises:
        ValueError: if the BAM is not coordinate-sorted.
    """
    from repro.io.bai import build_bai

    return build_bai(bam_path)


def load_index(path, names: Optional[Sequence[str]] = None):
    """Load any sidecar index, sniffing the format from its magic.

    Accepts the standard ``.bai`` (ours or an external tool's) and the
    multi-contig linear sidecar (``RMI1``).

    Args:
        path: sidecar file.
        names: the BAM header's reference names.  Required to make a
            ``.bai`` queryable by contig name (the format stores ids
            only); ignored for ``RMI1`` (which stores names).

    Returns:
        A :class:`RandomAccessIndex`.

    Raises:
        ValueError: on an unrecognised magic or a truncated or corrupt
            file.
    """
    from repro.io.bai import BAI_MAGIC, BaiIndex

    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == BAI_MAGIC:
        index = BaiIndex.load(path)
        if names is not None:
            index.attach_names(names)
        return index
    if magic == _MULTI_MAGIC:
        return MultiContigIndex.load(path)
    raise ValueError(f"unrecognised index magic {magic!r} in {path}")
