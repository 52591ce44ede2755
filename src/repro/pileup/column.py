"""The pileup column value types.

A column stores parallel NumPy arrays (base code, base quality,
strand, mapping quality) for every read base covering one reference
position.  The statistics layer consumes these arrays directly, so the
encodings are chosen for vectorised math: bases as uint8 codes 0..4,
qualities as raw Phred uint8.

:class:`ColumnBatch` is the structure-of-arrays form of a whole *span*
of columns: one set of flat arrays for every read base in the span,
plus per-column offsets.  It is the native interchange type of the
columnar pipeline (BAM decode -> batched screen); per-column
:class:`PileupColumn` objects are only materialised on demand through
:meth:`ColumnBatch.columns` / :meth:`ColumnBatch.column`, whose views
slice the shared flat arrays without copying.

The screen reads only base codes and qualities, so a batch may carry
its strand/mapq planes *lazily*: producers pass a ``planes`` thunk
instead of the arrays, and the scatters run only if something (the
``merge_mapq`` error model, a called pair's DP4, a per-column view)
actually touches :attr:`ColumnBatch.reverse` / :attr:`ColumnBatch.mapqs`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BASES",
    "BASE_TO_CODE",
    "BATCH_COLUMNS",
    "CODE_TO_BASE",
    "ColumnBatch",
    "PileupColumn",
    "check_batch_columns",
    "encode_read_bases",
]

#: Columns per batch: the batched engine's screening slice, and the
#: default window of every batch producer (the pipeline sources, the
#: builder), so one window feeds one screening pass and a window's
#: construction memory is about ``BATCH_COLUMNS`` x depth bases.
BATCH_COLUMNS = 1024


def check_batch_columns(batch_columns: int) -> int:
    """The ``batch_columns`` contract of every batch producer: a
    positive column cap.

    Raises:
        ValueError: if ``batch_columns`` is not a positive int.
    """
    if batch_columns is None or batch_columns <= 0:
        raise ValueError(f"batch_columns must be a positive int, got {batch_columns}")
    return batch_columns


BASES = "ACGTN"
BASE_TO_CODE: Dict[str, int] = {b: i for i, b in enumerate(BASES)}
CODE_TO_BASE: Dict[int, str] = {i: b for i, b in enumerate(BASES)}
N_CODE = BASE_TO_CODE["N"]

#: ASCII -> base code lookup, the vectorised twin of
#: ``BASE_TO_CODE.get(char, N_CODE)``: uppercase ``ACGT`` map to 0..3,
#: every other byte (including lowercase and ambiguity codes) to N.
SEQ_CODE_LUT = np.full(256, N_CODE, dtype=np.uint8)
for _base, _code in BASE_TO_CODE.items():
    SEQ_CODE_LUT[ord(_base)] = _code


def encode_read_bases(seq: str) -> np.ndarray:
    """Base codes for a read sequence string, one LUT gather.

    Exactly ``[BASE_TO_CODE.get(c, N_CODE) for c in seq]`` -- no
    case-folding, matching the streaming engine's per-base lookup.
    """
    raw = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
    return SEQ_CODE_LUT[raw]


@dataclasses.dataclass
class PileupColumn:
    """All read bases covering one reference position.

    Attributes:
        chrom: reference name.
        pos: 0-based reference position.
        ref_base: uppercase reference base at this position.
        base_codes: uint8 array of base codes (``BASE_TO_CODE``).
        quals: uint8 array of Phred base qualities (parallel).
        reverse: bool array, True where the read maps to the reverse
            strand (parallel).
        mapqs: uint8 array of mapping qualities (parallel).
        n_capped: reads dropped by the depth cap at this column.
    """

    chrom: str
    pos: int
    ref_base: str
    base_codes: np.ndarray
    quals: np.ndarray
    reverse: np.ndarray
    mapqs: np.ndarray
    n_capped: int = 0

    def __post_init__(self) -> None:
        self.base_codes = np.asarray(self.base_codes, dtype=np.uint8)
        self.quals = np.asarray(self.quals, dtype=np.uint8)
        self.reverse = np.asarray(self.reverse, dtype=bool)
        self.mapqs = np.asarray(self.mapqs, dtype=np.uint8)
        n = self.base_codes.size
        if not (self.quals.size == self.reverse.size == self.mapqs.size == n):
            raise ValueError("pileup column arrays must be parallel")

    @property
    def depth(self) -> int:
        """Number of read bases in the column (after capping)."""
        return int(self.base_codes.size)

    @property
    def ref_code(self) -> int:
        """Base code of the reference base (N for ambiguity codes)."""
        return BASE_TO_CODE.get(self.ref_base, N_CODE)

    def base_counts(self) -> np.ndarray:
        """Counts per base code, length 5 (A, C, G, T, N)."""
        return np.bincount(self.base_codes, minlength=5)[:5]

    def mismatch_count(self) -> int:
        """Bases differing from the reference, excluding N calls
        (LoFreq ignores N both in the reference and in reads)."""
        codes = self.base_codes
        return int(np.sum((codes != self.ref_code) & (codes != N_CODE)))

    def allele_depth(self, code: int) -> int:
        """Count of one specific base code."""
        return int(np.sum(self.base_codes == code))

    def strand_counts(self, code: int) -> Tuple[int, int]:
        """(forward, reverse) counts for one base code."""
        mask = self.base_codes == code
        rev = int(np.sum(mask & self.reverse))
        return int(np.sum(mask)) - rev, rev

    def dp4(self, alt_code: int) -> Tuple[int, int, int, int]:
        """LoFreq's DP4: ref-fwd, ref-rev, alt-fwd, alt-rev counts."""
        rf, rr = self.strand_counts(self.ref_code)
        af, ar = self.strand_counts(alt_code)
        return rf, rr, af, ar

    def error_probabilities(self, merge_mapq: bool = False) -> np.ndarray:
        """Per-read error probabilities implied by the quality scores.

        ``10**(-Q/10)`` from base qualities; with ``merge_mapq`` the
        mapping quality is folded in as an independent error source
        (``p = 1 - (1-p_base)(1-p_map)``), mirroring LoFreq's joint
        quality option (``-m`` merging in the original tool).
        """
        p = np.power(10.0, -self.quals.astype(np.float64) / 10.0)
        if merge_mapq:
            pm = np.power(10.0, -self.mapqs.astype(np.float64) / 10.0)
            p = 1.0 - (1.0 - p) * (1.0 - pm)
        return p

    def subset(self, mask: np.ndarray) -> "PileupColumn":
        """A new column restricted to ``mask`` (bool array)."""
        return PileupColumn(
            chrom=self.chrom,
            pos=self.pos,
            ref_base=self.ref_base,
            base_codes=self.base_codes[mask],
            quals=self.quals[mask],
            reverse=self.reverse[mask],
            mapqs=self.mapqs[mask],
            n_capped=self.n_capped,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = self.base_counts()
        summary = " ".join(
            f"{CODE_TO_BASE[i]}:{counts[i]}" for i in range(5) if counts[i]
        )
        return (
            f"PileupColumn({self.chrom}:{self.pos + 1} ref={self.ref_base} "
            f"depth={self.depth} [{summary}])"
        )


class ColumnBatch:
    """Structure-of-arrays pileup over a span of reference positions.

    All read bases of the span live in four flat parallel arrays;
    column ``i`` owns the half-open slice
    ``offsets[i]:offsets[i + 1]`` of each.  Empty columns are not
    represented (mirroring the streaming engine's default), so
    ``positions`` is the span's covered positions in increasing order.

    Attributes:
        chrom: reference name shared by every column.
        positions: int64 per-column reference positions (0-based).
        ref_bases: uppercase reference base per column (one string,
            ``ref_bases[i]`` belongs to ``positions[i]``); kept as
            characters, not codes, so ambiguity codes survive into the
            :class:`PileupColumn` views byte-for-byte.
        base_codes: uint8 flat base codes over all columns.
        quals: uint8 flat Phred base qualities (parallel).
        reverse: bool flat strand array (parallel).
        mapqs: uint8 flat mapping qualities (parallel).
        offsets: int64 column boundaries, length ``n_columns + 1``
            with ``offsets[0] == 0`` and ``offsets[-1]`` the total
            base count.
        n_capped: int64 per-column count of reads dropped by the
            depth cap.

    The strand/mapq planes may be deferred: pass ``planes`` (a
    zero-argument callable returning the ``(reverse, mapqs)`` pair)
    instead of the two arrays, and they are built on first attribute
    access.  The batched screen never touches them for a fully
    screened-out span, so the scatters are skipped entirely there;
    :attr:`planes_materialised` reports whether they have been built.

    Example -- two columns at positions 5 and 7, depths 2 and 1::

        >>> import numpy as np
        >>> batch = ColumnBatch(
        ...     chrom="chr1", positions=np.array([5, 7]), ref_bases="AC",
        ...     base_codes=np.array([0, 1, 1], dtype=np.uint8),
        ...     quals=np.array([30, 20, 25], dtype=np.uint8),
        ...     reverse=np.array([False, True, False]),
        ...     mapqs=np.array([60, 60, 60], dtype=np.uint8),
        ...     offsets=np.array([0, 2, 3]), n_capped=np.array([0, 0]))
        >>> batch.depths.tolist()
        [2, 1]
        >>> batch.column(1).ref_base        # zero-copy per-column view
        'C'
    """

    __slots__ = (
        "chrom",
        "positions",
        "ref_bases",
        "base_codes",
        "quals",
        "offsets",
        "n_capped",
        "_reverse",
        "_mapqs",
        "_planes",
    )

    def __init__(
        self,
        chrom: str,
        positions: np.ndarray,
        ref_bases: str,
        base_codes: np.ndarray,
        quals: np.ndarray,
        reverse: Optional[np.ndarray] = None,
        mapqs: Optional[np.ndarray] = None,
        offsets: Optional[np.ndarray] = None,
        n_capped: Optional[np.ndarray] = None,
        *,
        planes: Optional[Callable[[], Tuple[np.ndarray, np.ndarray]]] = None,
    ) -> None:
        if offsets is None or n_capped is None:
            raise ValueError("offsets and n_capped are required")
        self.chrom = chrom
        self.positions = np.asarray(positions, dtype=np.int64)
        self.ref_bases = ref_bases
        self.base_codes = np.asarray(base_codes, dtype=np.uint8)
        self.quals = np.asarray(quals, dtype=np.uint8)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.n_capped = np.asarray(n_capped, dtype=np.int64)
        n = self.positions.size
        total = self.base_codes.size
        if len(self.ref_bases) != n:
            raise ValueError("one reference base per column required")
        if self.offsets.shape != (n + 1,):
            raise ValueError("offsets must have n_columns + 1 entries")
        if n and (self.offsets[0] != 0 or self.offsets[-1] != total):
            raise ValueError("offsets must span the flat arrays exactly")
        if not n and total:
            raise ValueError("flat bases present but no columns declared")
        if self.quals.size != total:
            raise ValueError("batch flat arrays must be parallel")
        if planes is not None:
            if reverse is not None or mapqs is not None:
                raise ValueError(
                    "pass either reverse/mapqs arrays or a planes thunk"
                )
            self._reverse = None
            self._mapqs = None
            self._planes = planes
        else:
            if reverse is None or mapqs is None:
                raise ValueError(
                    "reverse and mapqs are required without a planes thunk"
                )
            self._planes = None
            self._set_planes(reverse, mapqs)

    def _set_planes(self, reverse: np.ndarray, mapqs: np.ndarray) -> None:
        self._reverse = np.asarray(reverse, dtype=bool)
        self._mapqs = np.asarray(mapqs, dtype=np.uint8)
        total = self.base_codes.size
        if not (self._reverse.size == self._mapqs.size == total):
            raise ValueError("batch flat arrays must be parallel")

    def _materialise_planes(self) -> None:
        if self._reverse is None:
            planes = self._planes
            self._planes = None
            self._set_planes(*planes())

    @property
    def planes_materialised(self) -> bool:
        """Whether the strand/mapq planes have been built."""
        return self._reverse is not None

    @property
    def reverse(self) -> np.ndarray:
        """bool flat strand array (built on first access when lazy)."""
        self._materialise_planes()
        return self._reverse

    @property
    def mapqs(self) -> np.ndarray:
        """uint8 flat mapping qualities (built on first access when
        lazy)."""
        self._materialise_planes()
        return self._mapqs

    @property
    def n_columns(self) -> int:
        """Number of (non-empty) columns in the batch."""
        return int(self.positions.size)

    def __len__(self) -> int:
        return self.n_columns

    @property
    def depths(self) -> np.ndarray:
        """Per-column depths (after capping), int64."""
        return np.diff(self.offsets)

    @property
    def ref_codes(self) -> np.ndarray:
        """uint8 per-column reference base codes (ambiguity -> N)."""
        if not self.ref_bases:
            return np.zeros(0, dtype=np.uint8)
        return encode_read_bases(self.ref_bases)

    def column(self, i: int) -> PileupColumn:
        """Materialise column ``i`` as a :class:`PileupColumn` whose
        arrays are zero-copy views into the batch."""
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        return PileupColumn(
            chrom=self.chrom,
            pos=int(self.positions[i]),
            ref_base=self.ref_bases[i],
            base_codes=self.base_codes[lo:hi],
            quals=self.quals[lo:hi],
            reverse=self.reverse[lo:hi],
            mapqs=self.mapqs[lo:hi],
            n_capped=int(self.n_capped[i]),
        )

    def columns(self) -> Iterator[PileupColumn]:
        """Backward-compatible per-column view, in stored order."""
        for i in range(self.n_columns):
            yield self.column(i)

    def slice_columns(self, lo: int, hi: int) -> "ColumnBatch":
        """The sub-batch of columns ``lo:hi`` -- flat arrays are
        zero-copy views; only the rebased offsets are allocated.
        Un-materialised strand/mapq planes stay lazy: the sub-batch
        defers to this batch's planes on first access."""
        off = self.offsets[lo : hi + 1]
        flo, fhi = int(off[0]), int(off[-1])
        if self.planes_materialised:
            plane_kwargs = dict(
                reverse=self._reverse[flo:fhi], mapqs=self._mapqs[flo:fhi]
            )
        else:
            plane_kwargs = dict(
                planes=lambda: (
                    self.reverse[flo:fhi],
                    self.mapqs[flo:fhi],
                )
            )
        return ColumnBatch(
            chrom=self.chrom,
            positions=self.positions[lo:hi],
            ref_bases=self.ref_bases[lo:hi],
            base_codes=self.base_codes[flo:fhi],
            quals=self.quals[flo:fhi],
            offsets=off - flo,
            n_capped=self.n_capped[lo:hi],
            **plane_kwargs,
        )

    def split(self, cap: int) -> List["ColumnBatch"]:
        """This batch as work units of at most ``cap`` columns
        (:meth:`slice_columns` pieces, planes still lazy): none when
        empty, the batch itself when it fits."""
        n = self.n_columns
        if n == 0:
            return []
        if n <= cap:
            return [self]
        return [
            self.slice_columns(lo, min(lo + cap, n)) for lo in range(0, n, cap)
        ]

    @classmethod
    def empty(cls, chrom: str) -> "ColumnBatch":
        """A batch with no columns (sources use it for dry regions)."""
        return cls(
            chrom=chrom,
            positions=np.zeros(0, dtype=np.int64),
            ref_bases="",
            base_codes=np.zeros(0, dtype=np.uint8),
            quals=np.zeros(0, dtype=np.uint8),
            reverse=np.zeros(0, dtype=bool),
            mapqs=np.zeros(0, dtype=np.uint8),
            offsets=np.zeros(1, dtype=np.int64),
            n_capped=np.zeros(0, dtype=np.int64),
        )

    @classmethod
    def from_columns(
        cls, columns: Sequence[PileupColumn], chrom: "str | None" = None
    ) -> "ColumnBatch":
        """Pack per-column objects into one batch (compatibility
        bridge for pre-columnar producers).

        Args:
            columns: columns in the order they should be stored; all
                must share one chromosome.
            chrom: the batch chromosome when ``columns`` is empty
                (required then, ignored otherwise).
        """
        cols = list(columns)
        if not cols:
            if chrom is None:
                raise ValueError("chrom required for an empty batch")
            return cls.empty(chrom)
        chroms = {c.chrom for c in cols}
        if len(chroms) > 1:
            raise ValueError(
                f"a batch spans one chromosome, got {sorted(chroms)}"
            )
        depths = np.array([c.depth for c in cols], dtype=np.int64)
        offsets = np.zeros(len(cols) + 1, dtype=np.int64)
        np.cumsum(depths, out=offsets[1:])
        return cls(
            chrom=cols[0].chrom,
            positions=np.array([c.pos for c in cols], dtype=np.int64),
            ref_bases="".join(c.ref_base for c in cols),
            base_codes=np.concatenate([c.base_codes for c in cols]),
            quals=np.concatenate([c.quals for c in cols]),
            reverse=np.concatenate([c.reverse for c in cols]),
            mapqs=np.concatenate([c.mapqs for c in cols]),
            offsets=offsets,
            n_capped=np.array([c.n_capped for c in cols], dtype=np.int64),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.n_columns:
            return f"ColumnBatch({self.chrom}: empty)"
        return (
            f"ColumnBatch({self.chrom}:{int(self.positions[0]) + 1}-"
            f"{int(self.positions[-1]) + 1} n_columns={self.n_columns} "
            f"bases={int(self.offsets[-1])})"
        )
