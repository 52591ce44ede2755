"""Unit tests for FASTA I/O."""

import io

import pytest

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

