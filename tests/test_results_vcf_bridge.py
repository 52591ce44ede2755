"""Tests for the VariantCall <-> VCF bridge and CallResult algebra."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.results import CallResult, RunStats, VariantCall
from repro.io.vcf import VcfRecord


def make_call(pos=5, pvalue=1e-8, filter="PASS", alt="T"):
    return VariantCall(
        chrom="chr1", pos=pos, ref="A", alt=alt, pvalue=pvalue,
        corrected_pvalue=min(1.0, pvalue * 1000), depth=500, alt_count=12,
        af=0.024, dp4=(240, 248, 7, 5), strand_bias=2.5, filter=filter,
    )


class TestVcfBridge:
    def test_record_fields(self):
        rec = make_call().to_vcf_record()
        assert rec.chrom == "chr1"
        assert rec.pos == 5
        assert rec.ref == "A"
        assert rec.alt == "T"
        assert rec.filter == "PASS"
        assert rec.info["DP"] == 500
        assert rec.info["AF"] == pytest.approx(0.024)
        assert rec.info["DP4"] == (240, 248, 7, 5)
        assert rec.info["SB"] == 2  # rounded Phred

    def test_quality_is_phred_of_pvalue(self):
        call = make_call(pvalue=1e-8)
        assert call.quality == pytest.approx(80.0)
        rec = call.to_vcf_record()
        assert rec.qual == pytest.approx(80.0)

    def test_quality_capped_for_zero_pvalue(self):
        assert make_call(pvalue=0.0).quality == 3000.0

    def test_vcf_line_round_trip(self):
        rec = make_call().to_vcf_record()
        back = VcfRecord.from_line(rec.to_line())
        assert back.key == rec.key
        assert back.info["DP4"] == (240, 248, 7, 5)

    def test_failed_filter_propagates(self):
        rec = make_call(filter="sb;min_dp").to_vcf_record()
        assert rec.filter == "sb;min_dp"


class TestCallResult:
    def test_passed_excludes_failures(self):
        result = CallResult(
            calls=[make_call(pos=1), make_call(pos=2, filter="sb")],
            stats=RunStats(),
        )
        assert [c.pos for c in result.passed] == [1]
        assert result.keys() == {("chr1", 1, "A", "T")}

    def test_merge_sorts_and_accumulates(self):
        a = CallResult(
            calls=[make_call(pos=9)], stats=RunStats(columns_seen=5)
        )
        b = CallResult(
            calls=[make_call(pos=3)], stats=RunStats(columns_seen=7)
        )
        a.merge(b)
        assert [c.pos for c in a.calls] == [3, 9]
        assert a.stats.columns_seen == 12

    def test_merge_timings(self):
        a = CallResult(calls=[], stats=RunStats(time_stats=1.0, time_total=2.0))
        b = CallResult(calls=[], stats=RunStats(time_stats=0.5, time_total=1.0))
        a.merge(b)
        assert a.stats.time_stats == pytest.approx(1.5)
        assert a.stats.time_total == pytest.approx(3.0)

    def test_key_includes_allele(self):
        result = CallResult(
            calls=[make_call(alt="T"), make_call(alt="G")], stats=RunStats()
        )
        assert len(result.keys()) == 2


class TestRunStats:
    @staticmethod
    def _numeric_fields():
        return [f.name for f in dataclasses.fields(RunStats) if f.name != "decisions"]

    def test_merge_adds_every_numeric_field(self):
        names = self._numeric_fields()
        a = RunStats(decisions={"called": 1}, **{n: i + 1 for i, n in enumerate(names)})
        b = RunStats(
            decisions={"called": 2, "skipped_approx": 3},
            **{n: 10 * (i + 1) for i, n in enumerate(names)},
        )
        a.merge(b)
        assert [getattr(a, n) for n in names] == [11 * (i + 1) for i in range(len(names))]
        assert a.decisions == {"called": 3, "skipped_approx": 3}

    def test_to_dict_exports_each_field_as_plain_json(self):
        stats = RunStats(dp_steps=np.int64(7), time_total=np.float64(0.5))
        out = stats.to_dict()
        assert set(out) == {f.name for f in dataclasses.fields(RunStats)} | {
            "skip_fraction",
            "cache_hit_rate",
        }
        assert type(out["dp_steps"]) is int and out["dp_steps"] == 7
        assert type(out["time_total"]) is float and out["time_total"] == 0.5
        json.dumps(out)
