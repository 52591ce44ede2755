"""CIGAR string parsing and algebra.

A CIGAR describes how a read aligns to the reference as a sequence of
``(operation, length)`` pairs.  The nine SAM operations and their
numeric codes (used verbatim by the binary BAM encoding) are::

    M 0  alignment match (can be a sequence match or mismatch)
    I 1  insertion to the reference
    D 2  deletion from the reference
    N 3  skipped region from the reference (introns)
    S 4  soft clipping (clipped sequence present in SEQ)
    H 5  hard clipping (clipped sequence NOT present in SEQ)
    P 6  padding
    = 7  sequence match
    X 8  sequence mismatch

Which operations consume query and/or reference bases drives both the
pileup engine and BAM encoding, so those predicates live here as the
single source of truth.
"""

from __future__ import annotations

import enum
import re
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = [
    "CigarOp",
    "CIGAR_OPS",
    "CONSUMES_QUERY",
    "CONSUMES_REFERENCE",
    "parse_cigar",
    "cigar_to_string",
    "query_length",
    "reference_length",
    "aligned_pairs",
    "clip_lengths",
    "validate_cigar",
    "unpack_cigar",
    "invalid_cigars",
    "op_table",
]


class CigarOp(enum.IntEnum):
    """CIGAR operation codes as used in the BAM binary encoding."""

    M = 0
    I = 1  # noqa: E741 - canonical SAM letter
    D = 2
    N = 3
    S = 4
    H = 5
    P = 6
    EQ = 7
    X = 8

    @property
    def char(self) -> str:
        """The one-letter SAM representation of this operation."""
        return _OP_TO_CHAR[int(self)]

    @classmethod
    def from_char(cls, c: str) -> "CigarOp":
        """Look an operation up from its SAM letter.

        Raises:
            ValueError: if ``c`` is not a valid CIGAR letter.
        """
        try:
            return cls(_CHAR_TO_OP[c])
        except KeyError:
            raise ValueError(f"invalid CIGAR operation {c!r}") from None


CIGAR_OPS = "MIDNSHP=X"
_OP_TO_CHAR = {i: c for i, c in enumerate(CIGAR_OPS)}
_CHAR_TO_OP = {c: i for i, c in enumerate(CIGAR_OPS)}

#: Operations that consume bases of the read (query) sequence.
CONSUMES_QUERY = frozenset(
    {CigarOp.M, CigarOp.I, CigarOp.S, CigarOp.EQ, CigarOp.X}
)
#: Operations that consume positions on the reference.
CONSUMES_REFERENCE = frozenset(
    {CigarOp.M, CigarOp.D, CigarOp.N, CigarOp.EQ, CigarOp.X}
)

Cigar = List[Tuple[CigarOp, int]]

def op_table(ops: Iterable[CigarOp]) -> np.ndarray:
    """16-entry lookup over BAM's 4-bit op field: True for the codes
    in ``ops``."""
    table = np.zeros(16, dtype=bool)
    table[[int(op) for op in ops]] = True
    return table


_QUERY_TABLE = op_table(CONSUMES_QUERY)

_CIGAR_RE = re.compile(r"(\d+)([MIDNSHP=X])")


def parse_cigar(text: str) -> Cigar:
    """Parse a CIGAR string into ``[(op, length), ...]``.

    ``"*"`` (the SAM placeholder for "no alignment") parses to an empty
    list.

    Raises:
        ValueError: on malformed input, zero-length operations, or
            trailing garbage.
    """
    if text == "*" or text == "":
        return []
    out: Cigar = []
    pos = 0
    for m in _CIGAR_RE.finditer(text):
        if m.start() != pos:
            raise ValueError(f"malformed CIGAR {text!r}")
        length = int(m.group(1))
        if length == 0:
            raise ValueError(f"zero-length CIGAR op in {text!r}")
        out.append((CigarOp.from_char(m.group(2)), length))
        pos = m.end()
    if pos != len(text):
        raise ValueError(f"malformed CIGAR {text!r}")
    return out


def cigar_to_string(cigar: Sequence[Tuple[CigarOp, int]]) -> str:
    """Render ``[(op, length), ...]`` back to a SAM CIGAR string.

    An empty CIGAR renders as ``"*"`` per the SAM specification.
    """
    if not cigar:
        return "*"
    return "".join(f"{length}{CigarOp(op).char}" for op, length in cigar)


def query_length(cigar: Sequence[Tuple[CigarOp, int]]) -> int:
    """Number of read bases covered by the CIGAR (length of SEQ)."""
    return sum(length for op, length in cigar if CigarOp(op) in CONSUMES_QUERY)


def reference_length(cigar: Sequence[Tuple[CigarOp, int]]) -> int:
    """Number of reference positions spanned by the CIGAR."""
    return sum(
        length for op, length in cigar if CigarOp(op) in CONSUMES_REFERENCE
    )


def clip_lengths(cigar: Sequence[Tuple[CigarOp, int]]) -> Tuple[int, int]:
    """Return ``(left, right)`` soft-clip lengths.

    Hard clips carry no sequence so they are excluded; only soft clips
    shift the mapping between SEQ indices and reference positions.
    """
    left = right = 0
    if cigar and CigarOp(cigar[0][0]) == CigarOp.S:
        left = cigar[0][1]
    if len(cigar) > 1 and CigarOp(cigar[-1][0]) == CigarOp.S:
        right = cigar[-1][1]
    return left, right


def aligned_pairs(
    cigar: Sequence[Tuple[CigarOp, int]], pos: int
) -> Iterator[Tuple[int | None, int | None]]:
    """Yield ``(query_index, reference_position)`` pairs.

    For each CIGAR-covered base, one element is ``None`` when the
    operation does not consume that side (e.g. ``(qi, None)`` inside an
    insertion).  ``pos`` is the 0-based leftmost reference coordinate.
    This mirrors pysam's ``get_aligned_pairs`` and is the primitive the
    pileup engine builds on.
    """
    qi = 0
    ri = pos
    for op, length in cigar:
        op = CigarOp(op)
        in_q = op in CONSUMES_QUERY
        in_r = op in CONSUMES_REFERENCE
        if in_q and in_r:
            for _ in range(length):
                yield qi, ri
                qi += 1
                ri += 1
        elif in_q:
            for _ in range(length):
                yield qi, None
                qi += 1
        elif in_r:
            for _ in range(length):
                yield None, ri
                ri += 1
        # H and P consume neither side and yield nothing.


def validate_cigar(
    cigar: Sequence[Tuple[CigarOp, int]], seq_len: int | None = None
) -> None:
    """Validate structural constraints from the SAM specification.

    * all lengths positive;
    * hard clips only at the outermost ends;
    * soft clips only at the ends (possibly inside hard clips);
    * if ``seq_len`` is given, query-consuming length must equal it.

    Raises:
        ValueError: describing the first violated constraint.
    """
    ops = [CigarOp(op) for op, _ in cigar]
    for op, length in cigar:
        if length <= 0:
            raise ValueError("CIGAR operation lengths must be positive")
    for i, op in enumerate(ops):
        if op == CigarOp.H and i not in (0, len(ops) - 1):
            raise ValueError("hard clip must be the first or last operation")
        if op == CigarOp.S:
            left_ok = i == 0 or (i == 1 and ops[0] == CigarOp.H)
            right_ok = i == len(ops) - 1 or (
                i == len(ops) - 2 and ops[-1] == CigarOp.H
            )
            if not (left_ok or right_ok):
                raise ValueError("soft clip must be at an end of the CIGAR")
    if seq_len is not None and cigar:
        qlen = query_length(cigar)
        if qlen != seq_len:
            raise ValueError(
                f"CIGAR consumes {qlen} query bases but SEQ length is {seq_len}"
            )


def unpack_cigar(words: Iterable[int]) -> Cigar:
    """Unpack BAM's packed CIGAR words (``length << 4 | op``) into
    ``[(op, length), ...]``.

    Raises:
        ValueError: if an op code is above 8 (``X``); BAM's 4-bit op
            field allows 15.
    """
    out: Cigar = []
    for word in words:
        op = word & 0xF
        if op > CigarOp.X:
            raise ValueError(f"CIGAR op code {op}")
        out.append((CigarOp(op), word >> 4))
    return out


def invalid_cigars(
    ops: np.ndarray, lens: np.ndarray, counts: np.ndarray, seq_lens: np.ndarray
) -> np.ndarray:
    """:func:`unpack_cigar` and :func:`validate_cigar` over many CIGARs
    at once, as numpy vectors.

    Args:
        ops, lens: every CIGAR's op codes (0-15) and lengths, flattened
            CIGAR after CIGAR.
        counts: operations per CIGAR.
        seq_lens: each CIGAR's SEQ length; 0 (no SEQ) leaves the query
            length unchecked, as :class:`~repro.io.records.AlignedRead`
            does.

    Returns:
        One bool per CIGAR: True where unpacking or validating it
        raises.
    """
    bad = np.zeros(counts.size, dtype=bool)
    if ops.size == 0:
        return bad
    first = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=first[1:])
    owner = np.repeat(np.arange(counts.size), counts)
    at = np.arange(ops.size) - first[owner]
    last = counts[owner] - 1
    first_hard = ops[first[owner]] == CigarOp.H
    last_hard = ops[first[owner] + last] == CigarOp.H
    soft_ok = (
        (at == 0)
        | ((at == 1) & first_hard)
        | (at == last)
        | ((at == last - 1) & last_hard)
    )
    broken = (
        (ops > CigarOp.X)
        | (lens <= 0)
        | ((ops == CigarOp.H) & (at != 0) & (at != last))
        | ((ops == CigarOp.S) & ~soft_ok)
    )
    bad[owner[broken]] = True
    consumed = np.zeros(ops.size + 1, dtype=np.int64)
    np.cumsum(np.where(_QUERY_TABLE[ops], lens, 0), out=consumed[1:])
    query = consumed[first + counts] - consumed[first]
    bad |= (seq_lens > 0) & (counts > 0) & (query != seq_lens)
    return bad


def collapse(cigar: Iterable[Tuple[CigarOp, int]]) -> Cigar:
    """Merge adjacent operations of the same kind and drop zero lengths.

    Useful when programmatically constructing CIGARs (the simulator
    emits per-base ops and collapses them afterwards).
    """
    out: Cigar = []
    for op, length in cigar:
        if length == 0:
            continue
        op = CigarOp(op)
        if out and out[-1][0] == op:
            out[-1] = (op, out[-1][1] + length)
        else:
            out.append((op, length))
    return out
