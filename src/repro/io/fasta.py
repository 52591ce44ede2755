"""FASTA reading and writing.

The reference genome enters the pipeline through this module.  Records
are simple ``(name, description, sequence)`` triples; sequences are
uppercased on read so downstream base comparisons are case-insensitive.
Text that is not FASTA raises :class:`~repro.io.errors.FormatError`
naming the line, and the file when one was opened by path.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, Iterable, Iterator, List, TextIO, Union

from repro.io.errors import FormatError

__all__ = ["FastaRecord", "read_fasta", "write_fasta", "load_reference"]

PathOrFile = Union[str, os.PathLike, TextIO]


@dataclasses.dataclass(frozen=True)
class FastaRecord:
    """One FASTA entry.

    Attributes:
        name: the first whitespace-delimited token after ``>``.
        description: the remainder of the defline (may be empty).
        sequence: uppercase sequence with whitespace removed.
    """

    name: str
    description: str
    sequence: str

    def __len__(self) -> int:
        return len(self.sequence)


def _open_text(source: PathOrFile, mode: str) -> tuple[TextIO, bool]:
    if hasattr(source, "read") or hasattr(source, "write"):
        return source, False  # type: ignore[return-value]
    return open(source, mode), True


def _records(source: PathOrFile, unique: bool) -> Iterator[FastaRecord]:
    """The records of ``source``; ``unique`` rejects a repeated name.
    Errors name the line, and the file when one was opened by path."""
    handle, owned = _open_text(source, "r")
    where = f"{os.fspath(source)}: " if owned else ""
    first: Dict[str, int] = {}
    try:
        name: str | None = None
        desc = ""
        chunks: List[str] = []
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith(">"):
                if name is not None:
                    yield FastaRecord(name, desc, "".join(chunks).upper())
                parts = line[1:].split(maxsplit=1)
                name = parts[0] if parts else ""
                desc = parts[1] if len(parts) > 1 else ""
                chunks = []
                if unique and name in first:
                    raise FormatError(
                        f"{where}line {lineno}: duplicate FASTA record "
                        f"{name!r} (first at line {first[name]})"
                    )
                first[name] = lineno
            else:
                if name is None:
                    raise FormatError(
                        f"{where}line {lineno}: FASTA data before first '>' defline"
                    )
                chunks.append(line)
        if name is not None:
            yield FastaRecord(name, desc, "".join(chunks).upper())
    finally:
        if owned:
            handle.close()


def read_fasta(source: PathOrFile) -> Iterator[FastaRecord]:
    """Iterate :class:`FastaRecord` objects from a path or text handle.

    Raises:
        FormatError: if sequence data precedes the first ``>`` defline.
    """
    return _records(source, unique=False)


def write_fasta(
    dest: PathOrFile, records: Iterable[FastaRecord], width: int = 70
) -> None:
    """Write records, wrapping sequence lines at ``width`` columns."""
    handle, owned = _open_text(dest, "w")
    try:
        for rec in records:
            defline = f">{rec.name}"
            if rec.description:
                defline += f" {rec.description}"
            handle.write(defline + "\n")
            seq = rec.sequence
            for i in range(0, len(seq), width):
                handle.write(seq[i : i + width] + "\n")
    finally:
        if owned:
            handle.close()


def load_reference(source: PathOrFile) -> Dict[str, str]:
    """Load a FASTA file into ``{name: sequence}``.

    Raises:
        FormatError: on sequence data before the first ``>`` defline,
            or a record name used twice.
    """
    return {rec.name: rec.sequence for rec in _records(source, unique=True)}
