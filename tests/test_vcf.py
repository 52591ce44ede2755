"""Unit tests for the VCF codec."""

import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import FormatError
from repro.io.vcf import VcfRecord, read_vcf, write_vcf


def make_record(**kwargs):
    defaults = dict(
        chrom="chr1",
        pos=99,
        ref="A",
        alt="T",
        qual=77.5,
        filter="PASS",
        info={"DP": 1000, "AF": 0.013, "SB": 3, "DP4": (480, 490, 7, 6)},
    )
    defaults.update(kwargs)
    return VcfRecord(**defaults)


class TestRecord:
    def test_to_line_is_one_based(self):
        line = make_record().to_line()
        fields = line.split("\t")
        assert fields[0] == "chr1"
        assert fields[1] == "100"
        assert fields[3] == "A"
        assert fields[4] == "T"

    def test_line_round_trip(self):
        rec = make_record()
        back = VcfRecord.from_line(rec.to_line())
        assert back.chrom == rec.chrom
        assert back.pos == rec.pos
        assert back.ref == rec.ref
        assert back.alt == rec.alt
        assert back.qual == pytest.approx(rec.qual)
        assert back.filter == "PASS"
        assert back.info["DP"] == 1000
        assert back.info["AF"] == pytest.approx(0.013)
        assert back.info["DP4"] == (480, 490, 7, 6)

    def test_missing_qual(self):
        rec = make_record(qual=float("nan"))
        line = rec.to_line()
        assert line.split("\t")[5] == "."
        assert math.isnan(VcfRecord.from_line(line).qual)

    def test_flag_info(self):
        rec = make_record(info={"TRUTH": True})
        back = VcfRecord.from_line(rec.to_line())
        assert back.info["TRUTH"] is True

    def test_key(self):
        assert make_record().key == ("chr1", 99, "A", "T")

    def test_short_line_raises(self):
        with pytest.raises(ValueError, match="columns"):
            VcfRecord.from_line("chr1\t100\t.\tA")


class TestFile:
    def test_file_round_trip(self, tmp_path):
        records = [make_record(pos=i) for i in range(10)]
        path = tmp_path / "x.vcf"
        assert write_vcf(path, records, reference=[("chr1", 1000)]) == 10
        headers, back = read_vcf(path)
        assert len(back) == 10
        assert any("fileformat=VCFv4.2" in h for h in headers)
        assert any("contig=<ID=chr1" in h for h in headers)
        assert [r.pos for r in back] == list(range(10))

    def test_header_structure(self):
        buf = io.StringIO()
        write_vcf(buf, [make_record()], extra_headers=["##extra=1"])
        text = buf.getvalue()
        lines = text.splitlines()
        assert lines[0] == "##fileformat=VCFv4.2"
        assert "##extra=1" in lines
        chrom_line = [l for l in lines if l.startswith("#CHROM")]
        assert len(chrom_line) == 1

    def test_empty_vcf(self, tmp_path):
        path = tmp_path / "empty.vcf"
        write_vcf(path, [])
        headers, records = read_vcf(path)
        assert records == []
        assert headers


class TestMalformedInput:
    """A VCF that does not parse raises ``FormatError`` naming the line,
    and the file when one was opened by path."""

    @pytest.mark.parametrize(
        "line, message",
        [
            ("chr1\t100\t.\tA", "line 3: VCF line has 4 columns"),
            ("chr1\tx\t.\tA\tT\t50\tPASS\t.", "line 3: POS 'x' is not an integer"),
            ("chr1\t100\t.\tA\tT\thigh\tPASS\t.", "line 3: QUAL 'high' is neither"),
        ],
        ids=["columns", "pos", "qual"],
    )
    def test_bad_line_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "bad.vcf"
        path.write_text("##fileformat=VCFv4.2\n" + make_record().to_line() + "\n" + line + "\n")
        with pytest.raises(FormatError, match=message) as info:
            read_vcf(path)
        assert str(info.value).startswith(f"{path}: ")
        with pytest.raises(FormatError, match=message) as info:
            read_vcf(io.StringIO(path.read_text()))
        assert str(info.value).startswith("line 3: ")

    def test_non_utf8_names_line(self, tmp_path):
        path = tmp_path / "bin.vcf"
        path.write_bytes(b"##fileformat=VCFv4.2\n#CHROM\nchr1\t1\t.\tA\tT\t5\tPASS\t\xff\n")
        with pytest.raises(FormatError, match=f"{path}: line 3: not UTF-8"):
            read_vcf(path)

    @given(
        mode=st.sampled_from(["truncate", "flip", "splice"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_mutated_vcf_parses_or_raises_format_error(self, mode, seed):
        """Shaped like ``TestCorruptStreams``: a damaged encoding either
        reads back as records or raises ``FormatError``, nothing else."""
        rng = random.Random(seed)
        buf = io.StringIO()
        records = [
            make_record(pos=rng.randrange(10_000), qual=rng.choice([float("nan"), 12.5]))
            for _ in range(rng.randint(1, 6))
        ]
        write_vcf(buf, records, reference=[("chr1", 10_000)])
        raw = bytearray(buf.getvalue().encode("utf-8"))
        if mode == "truncate":
            raw = raw[: rng.randrange(len(raw))]
        elif mode == "flip":
            for _ in range(rng.randint(1, 4)):
                raw[rng.randrange(len(raw))] = rng.randrange(256)
        else:
            at = rng.randrange(len(raw))
            raw[at:at] = rng.choice([b"\t", b"\n", b"\tx", b"\r\n", b"\x80"])
        try:
            _, back = read_vcf(io.BytesIO(bytes(raw)))
        except FormatError:
            return
        assert all(isinstance(r, VcfRecord) for r in back)
