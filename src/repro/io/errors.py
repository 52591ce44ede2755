"""The one error type for input bytes that do not decode."""

from __future__ import annotations

__all__ = ["FormatError"]


class FormatError(ValueError):
    """Malformed input: a BAM record that is cut short or does not
    parse, a BGZF block that does not inflate or a stream without its
    EOF marker, FASTA text before its first defline or with a repeated
    name.  The message names where (a voffset, an offset, a line).

    A :class:`ValueError`, so existing ``except ValueError`` callers
    keep working; the constructor takes the message only, so the error
    pickles back unchanged from process-backend workers.
    """
