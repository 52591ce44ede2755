"""The one error type for input bytes that do not decode."""

from __future__ import annotations

__all__ = ["FormatError"]


class FormatError(ValueError):
    """Malformed input: a BAM record that is cut short, whose length or
    range fields disagree with its size, or whose name, CIGAR or tags
    do not parse.  The message names where (for BAM records, the
    virtual offset).

    A :class:`ValueError`, so existing ``except ValueError`` callers
    keep working; the constructor takes the message only, so the error
    pickles back unchanged from process-backend workers.
    """
