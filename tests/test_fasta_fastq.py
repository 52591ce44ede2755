"""Unit tests for FASTA I/O."""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import FormatError
from repro.io.fasta import FastaRecord, load_reference, read_fasta, write_fasta


class TestFasta:
    def test_round_trip(self, tmp_path):
        records = [
            FastaRecord("seq1", "first sequence", "ACGTACGT" * 20),
            FastaRecord("seq2", "", "TTTT"),
        ]
        path = tmp_path / "test.fa"
        write_fasta(path, records)
        back = list(read_fasta(path))
        assert back == records

    def test_wrapping(self):
        buf = io.StringIO()
        write_fasta(buf, [FastaRecord("s", "", "A" * 150)], width=70)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ">s"
        assert [len(x) for x in lines[1:]] == [70, 70, 10]

    def test_multiline_and_case_normalisation(self):
        text = ">s desc here\nacgt\nACGT\n"
        (rec,) = read_fasta(io.StringIO(text))
        assert rec.name == "s"
        assert rec.description == "desc here"
        assert rec.sequence == "ACGTACGT"

    def test_data_before_defline_raises(self):
        with pytest.raises(ValueError, match="before first"):
            list(read_fasta(io.StringIO("ACGT\n>s\nACGT\n")))

    def test_load_reference(self, tmp_path):
        path = tmp_path / "ref.fa"
        write_fasta(path, [FastaRecord("a", "", "AC"), FastaRecord("b", "", "GT")])
        assert load_reference(path) == {"a": "AC", "b": "GT"}

    def test_load_reference_duplicate_raises(self):
        text = ">a\nAC\n>a\nGT\n"
        with pytest.raises(ValueError, match="duplicate"):
            load_reference(io.StringIO(text))

    def test_empty_file_yields_nothing(self):
        assert list(read_fasta(io.StringIO(""))) == []


class TestFastaBytes:
    """A FASTA file is read as UTF-8 whatever the locale; bytes that
    are not UTF-8 are a ``FormatError`` naming the file and line."""

    def test_non_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.fa"
        path.write_bytes(b">chr1 desc\nACGT\nAC\xffGT\n")
        with pytest.raises(FormatError, match=f"{path}: line 3: not UTF-8 text"):
            load_reference(path)

    def test_utf8_description_reads(self, tmp_path):
        path = tmp_path / "utf8.fa"
        path.write_bytes(">chr1 caf\u00e9\r\nACGT\r\n".encode("utf-8"))
        (rec,) = read_fasta(path)
        assert (rec.name, rec.description, rec.sequence) == ("chr1", "caf\u00e9", "ACGT")

    @given(
        mode=st.sampled_from(["truncate", "flip", "splice"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_mutated_fasta_loads_or_raises_format_error(self, tmp_path_factory, mode, seed):
        """Shaped like ``TestCorruptStreams``: a damaged encoding either
        loads or raises ``FormatError``, nothing else."""
        rng = random.Random(seed)
        buf = io.StringIO()
        write_fasta(
            buf,
            [
                FastaRecord(f"c{i}", rng.choice(["", "desc"]), "".join(
                    rng.choice("ACGTN") for _ in range(rng.randint(0, 150))
                ))
                for i in range(rng.randint(1, 4))
            ],
        )
        raw = bytearray(buf.getvalue().encode("ascii"))
        if mode == "truncate":
            raw = raw[: rng.randrange(len(raw))]
        elif mode == "flip":
            for _ in range(rng.randint(1, 4)):
                raw[rng.randrange(len(raw))] = rng.randrange(256)
        else:
            at = rng.randrange(len(raw))
            raw[at:at] = rng.choice([b">", b"\n", b"\n>c0\n", b"\r", b"\xc3", b"\xe9"])
        path = tmp_path_factory.mktemp("fasta") / "mutated.fa"
        path.write_bytes(bytes(raw))
        try:
            reference = load_reference(path)
        except FormatError:
            return
        assert all(isinstance(seq, str) for seq in reference.values())
