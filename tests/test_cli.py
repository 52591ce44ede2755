"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A simulated BAM + reference + truth VCF built via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    bam = root / "sample.bam"
    ref = root / "ref.fa"
    truth = root / "truth.vcf"
    rc = main(
        [
            "simulate",
            "--genome-length", "900",
            "--depth", "250",
            "--variants", "6",
            "--min-freq", "0.05",
            "--max-freq", "0.2",
            "--seed", "21",
            "--out-bam", str(bam),
            "--out-reference", str(ref),
            "--out-truth", str(truth),
        ]
    )
    assert rc == 0
    return root


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--out-bam", "x.bam"],
            ["call", "in.bam", "--reference", "r.fa", "--out", "o.vcf"],
            ["compare", "a.vcf", "b.vcf"],
            ["upset", "a.vcf", "b.vcf"],
        ],
    )
    def test_valid_invocations_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]


class TestSimulate:
    def test_outputs_exist(self, workspace):
        assert (workspace / "sample.bam").stat().st_size > 0
        assert (workspace / "ref.fa").stat().st_size > 0
        assert (workspace / "truth.vcf").stat().st_size > 0

    def test_truth_vcf_well_formed(self, workspace):
        from repro.io.vcf import read_vcf

        headers, records = read_vcf(workspace / "truth.vcf")
        assert len(records) == 6
        assert all("AF" in r.info for r in records)

    def test_bam_is_readable(self, workspace):
        from repro.io.bam import BamReader

        with BamReader(workspace / "sample.bam") as reader:
            n = sum(1 for _ in reader)
        assert n > 1000


class TestCall:
    def test_call_improved(self, workspace, capsys):
        out = workspace / "calls.vcf"
        rc = main(
            [
                "call", str(workspace / "sample.bam"),
                "--reference", str(workspace / "ref.fa"),
                "--out", str(out),
                "--stats",
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "PASS calls" in text
        assert "approx first-pass" in text
        assert out.exists()

    def test_call_recovers_truth(self, workspace):
        from repro.io.vcf import read_vcf

        out = workspace / "calls2.vcf"
        main(
            [
                "call", str(workspace / "sample.bam"),
                "--reference", str(workspace / "ref.fa"),
                "--out", str(out),
            ]
        )
        _, calls = read_vcf(out)
        _, truth = read_vcf(workspace / "truth.vcf")
        called = {(r.pos, r.ref, r.alt) for r in calls if r.filter == "PASS"}
        expected = {(r.pos, r.ref, r.alt) for r in truth}
        assert expected <= called

    def test_original_and_improved_agree(self, workspace):
        from repro.io.vcf import read_vcf

        outs = {}
        for algo in ("improved", "original"):
            out = workspace / f"calls_{algo}.vcf"
            main(
                [
                    "call", str(workspace / "sample.bam"),
                    "--reference", str(workspace / "ref.fa"),
                    "--out", str(out),
                    "--algorithm", algo,
                ]
            )
            _, records = read_vcf(out)
            outs[algo] = {(r.pos, r.ref, r.alt) for r in records}
        assert outs["improved"] == outs["original"]

    def test_engine_option_batched_identical(self, workspace):
        outs = {}
        for engine in ("streaming", "batched"):
            out = workspace / f"calls_{engine}.vcf"
            rc = main(
                [
                    "call", str(workspace / "sample.bam"),
                    "--reference", str(workspace / "ref.fa"),
                    "--out", str(out),
                    "--engine", engine,
                ]
            )
            assert rc == 0
            outs[engine] = out.read_bytes()
        assert outs["streaming"] == outs["batched"]

    def test_engine_option_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["call", "in.bam", "--reference", "r.fa", "--out", "o.vcf",
                 "--engine", "warp"]
            )

    def test_parallel_call(self, workspace):
        from repro.io.vcf import read_vcf

        _, serial = read_vcf(workspace / "calls2.vcf")
        # The defaults (batched engine, process backend), and the
        # streaming engine under the thread backend.
        for extra in ([], ["--engine", "streaming", "--backend", "thread"]):
            out = workspace / "calls_par.vcf"
            rc = main(
                [
                    "call", str(workspace / "sample.bam"),
                    "--reference", str(workspace / "ref.fa"),
                    "--out", str(out),
                    "--workers", "3",
                    *extra,
                ]
            )
            assert rc == 0
            _, par = read_vcf(out)
            assert {(r.pos, r.alt) for r in par} == {
                (r.pos, r.alt) for r in serial
            }, extra

    def test_region_option(self, workspace):
        from repro.io.vcf import read_vcf

        out = workspace / "calls_region.vcf"
        main(
            [
                "call", str(workspace / "sample.bam"),
                "--reference", str(workspace / "ref.fa"),
                "--out", str(out),
                "--region", "NC_045512.2-sim:1-300",
            ]
        )
        _, records = read_vcf(out)
        assert all(r.pos < 300 for r in records)

    def test_bad_reference_errors(self, workspace, tmp_path):
        from repro.io.fasta import FastaRecord, write_fasta

        bad_ref = tmp_path / "wrong.fa"
        write_fasta(bad_ref, [FastaRecord("other", "", "ACGT" * 100)])
        rc = main(
            [
                "call", str(workspace / "sample.bam"),
                "--reference", str(bad_ref),
                "--out", str(tmp_path / "x.vcf"),
            ]
        )
        assert rc == 2


class TestPileupKnobs:
    def test_defaults_match_explicit(self, workspace):
        """Passing the documented defaults changes nothing."""
        outs = {}
        for label, extra in (
            ("default", []),
            ("explicit", ["--min-mapq", "0", "--min-baseq", "6"]),
        ):
            out = workspace / f"calls_knobs_{label}.vcf"
            rc = main(
                [
                    "call", str(workspace / "sample.bam"),
                    "--reference", str(workspace / "ref.fa"),
                    "--out", str(out),
                ]
                + extra
            )
            assert rc == 0
            outs[label] = out.read_bytes()
        assert outs["default"] == outs["explicit"]

    def test_min_mapq_above_reads_drops_all_calls(self, workspace):
        from repro.io.vcf import read_vcf

        out = workspace / "calls_mapq_all.vcf"
        rc = main(
            [
                "call", str(workspace / "sample.bam"),
                "--reference", str(workspace / "ref.fa"),
                "--out", str(out),
                "--min-mapq", "100",  # simulated reads carry mapq 60
            ]
        )
        assert rc == 0
        _, records = read_vcf(out)
        assert records == []

    def test_min_baseq_strict_reduces_depth(self, workspace):
        import json

        depths = {}
        for label, baseq in (("loose", "6"), ("strict", "38")):
            out = workspace / f"calls_baseq_{label}.vcf"
            stats = workspace / f"stats_baseq_{label}.json"
            rc = main(
                [
                    "call", str(workspace / "sample.bam"),
                    "--reference", str(workspace / "ref.fa"),
                    "--out", str(out),
                    "--min-baseq", baseq,
                    "--stats-json", str(stats),
                ]
            )
            assert rc == 0
            depths[label] = json.loads(stats.read_text())["stats"]["tests_run"]
        # A strict base-quality floor must prune observations (fewer
        # candidate tests), not leave the pileup untouched.
        assert depths["strict"] < depths["loose"]

    def test_max_depth_caps_reported_depth(self, workspace):
        from repro.io.vcf import read_vcf

        out = workspace / "calls_capped.vcf"
        rc = main(
            [
                "call", str(workspace / "sample.bam"),
                "--reference", str(workspace / "ref.fa"),
                "--out", str(out),
                "--max-depth", "50",
            ]
        )
        assert rc == 0
        _, records = read_vcf(out)
        assert records, "capped run should still call the strong variants"
        assert all(int(r.info["DP"]) <= 50 for r in records)

    def test_knobs_identical_across_engines(self, workspace):
        """The columnar BAM path must honour the pileup knobs exactly
        like the streaming path."""
        outs = {}
        for engine in ("streaming", "batched"):
            out = workspace / f"calls_knobs_{engine}.vcf"
            rc = main(
                [
                    "call", str(workspace / "sample.bam"),
                    "--reference", str(workspace / "ref.fa"),
                    "--out", str(out),
                    "--engine", engine,
                    "--min-baseq", "20",
                    "--max-depth", "80",
                ]
            )
            assert rc == 0
            outs[engine] = out.read_bytes()
        assert outs["streaming"] == outs["batched"]

    def test_invalid_max_depth_errors(self, workspace, tmp_path):
        rc = main(
            [
                "call", str(workspace / "sample.bam"),
                "--reference", str(workspace / "ref.fa"),
                "--out", str(tmp_path / "x.vcf"),
                "--max-depth", "0",
            ]
        )
        assert rc == 2

    def test_merge_mapq_identical_across_engines(self, workspace):
        """--merge-mapq folds per-read mapping quality into the error
        model; the batched engine's fused-table path must match the
        streaming engine byte-for-byte."""
        outs = {}
        for engine in ("streaming", "batched"):
            out = workspace / f"calls_mergemapq_{engine}.vcf"
            rc = main(
                [
                    "call", str(workspace / "sample.bam"),
                    "--reference", str(workspace / "ref.fa"),
                    "--out", str(out),
                    "--engine", engine,
                    "--merge-mapq",
                ]
            )
            assert rc == 0
            outs[engine] = out.read_bytes()
        assert outs["streaming"] == outs["batched"]

    def test_merge_mapq_changes_error_model(self, workspace):
        """The merge is not a no-op: with mapping qualities folded in,
        per-read error probabilities rise, so the emitted QUAL values
        must differ from the base-quality-only run somewhere."""
        outs = {}
        for label, extra in (("plain", []), ("merged", ["--merge-mapq"])):
            out = workspace / f"calls_mergeeffect_{label}.vcf"
            rc = main(
                [
                    "call", str(workspace / "sample.bam"),
                    "--reference", str(workspace / "ref.fa"),
                    "--out", str(out),
                ]
                + extra
            )
            assert rc == 0
            outs[label] = out.read_bytes()
        assert outs["plain"] != outs["merged"]


class TestNewCallFlags:
    def test_output_format_jsonl(self, workspace):
        import json

        out = workspace / "calls.jsonl"
        rc = main(
            [
                "call", str(workspace / "sample.bam"),
                "--reference", str(workspace / "ref.fa"),
                "--out", str(out),
                "--output-format", "jsonl",
            ]
        )
        assert rc == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines and all("chrom" in d and "af" in d for d in lines)

    def test_stats_json(self, workspace):
        import json

        out = workspace / "calls_sj.vcf"
        stats = workspace / "stats.json"
        rc = main(
            [
                "call", str(workspace / "sample.bam"),
                "--reference", str(workspace / "ref.fa"),
                "--out", str(out),
                "--stats-json", str(stats),
            ]
        )
        assert rc == 0
        payload = json.loads(stats.read_text())
        assert payload["stats"]["columns_seen"] > 0
        assert payload["n_pass"] <= payload["n_calls"]

    def test_all_contigs_single_contig_matches_default(self, workspace):
        default = workspace / "calls_def.vcf"
        allctg = workspace / "calls_all.vcf"
        main(
            [
                "call", str(workspace / "sample.bam"),
                "--reference", str(workspace / "ref.fa"),
                "--out", str(default),
            ]
        )
        rc = main(
            [
                "call", str(workspace / "sample.bam"),
                "--reference", str(workspace / "ref.fa"),
                "--out", str(allctg),
                "--all-contigs",
            ]
        )
        assert rc == 0
        assert default.read_bytes() == allctg.read_bytes()


class TestCompareUpset:
    @pytest.fixture(scope="class")
    def handmade_vcfs(self, tmp_path_factory):
        """Small VCFs with controlled PASS / failing records."""
        from repro.io.vcf import VcfRecord, write_vcf

        root = tmp_path_factory.mktemp("cmp")

        def rec(pos, filt="PASS"):
            return VcfRecord(
                chrom="c", pos=pos, ref="A", alt="T", qual=60.0, filter=filt
            )

        paths = {}
        specs = {
            "a": [rec(1), rec(2), rec(9, filt="sb")],
            "b": [rec(1), rec(5)],
            # Same PASS/'.' set as "a": the sb-failing record is
            # replaced by a dot-filtered record at another position.
            "a_like": [rec(1), rec(2, filt="."), rec(7, filt="min_dp")],
        }
        for name, records in specs.items():
            paths[name] = root / f"{name}.vcf"
            write_vcf(paths[name], records)
        return paths

    def test_compare_identical(self, workspace, capsys):
        rc = main(
            ["compare", str(workspace / "calls2.vcf"), str(workspace / "calls2.vcf")]
        )
        assert rc == 0
        assert "jaccard 1.000" in capsys.readouterr().out

    def test_compare_different(self, workspace, capsys):
        rc = main(
            ["compare", str(workspace / "calls2.vcf"), str(workspace / "truth.vcf")]
        )
        # truth has filter '.', compare counts it; sets may differ -> rc 1 or 0
        out = capsys.readouterr().out
        assert "shared" in out

    def test_upset_renders(self, workspace, capsys):
        rc = main(
            [
                "upset",
                str(workspace / "calls2.vcf"),
                str(workspace / "truth.vcf"),
                "--labels", "calls", "truth",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "calls" in out and "truth" in out
        assert "Set totals:" in out

    def test_upset_label_mismatch(self, workspace, capsys):
        rc = main(
            [
                "upset", str(workspace / "calls2.vcf"),
                "--labels", "a", "b",
            ]
        )
        assert rc == 2
        assert "--labels count" in capsys.readouterr().err

    def test_compare_different_sets_exit_1(self, handmade_vcfs, capsys):
        rc = main(["compare", str(handmade_vcfs["a"]), str(handmade_vcfs["b"])])
        assert rc == 1
        out = capsys.readouterr().out
        assert "shared" in out

    @pytest.mark.parametrize("command", ["compare", "upset"])
    @pytest.mark.parametrize(
        "damage, message",
        [
            ("pos", "line 2: POS 'x' is not an integer"),
            ("columns", "line 2: VCF line has 2 columns"),
            ("missing", "No such file"),
        ],
        ids=["pos", "columns", "missing"],
    )
    def test_malformed_vcf_errors(
        self, handmade_vcfs, tmp_path, capsys, command, damage, message
    ):
        """A VCF that is missing or does not parse is one ``error:``
        line and exit 2 (exit 1 keeps meaning "call sets differ")."""
        bad = tmp_path / "bad.vcf"
        if damage == "pos":
            bad.write_text("#CHROM\nc\tx\t.\tA\tT\t60\tPASS\t.\n")
        elif damage == "columns":
            bad.write_text("#CHROM\nc\t5\n")
        rc = main([command, str(handmade_vcfs["a"]), str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert message in err and str(bad) in err

    def test_compare_ignores_failing_filters(self, handmade_vcfs, capsys):
        """Only PASS and '.' records count: 'a' and 'a_like' differ in
        their failing records but share the same effective set."""
        rc = main(
            ["compare", str(handmade_vcfs["a"]), str(handmade_vcfs["a_like"])]
        )
        assert rc == 0
        assert "jaccard 1.000" in capsys.readouterr().out

    def test_upset_default_labels_are_paths(self, handmade_vcfs, capsys):
        rc = main(
            ["upset", str(handmade_vcfs["a"]), str(handmade_vcfs["b"])]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "a.vcf" in out and "b.vcf" in out

    def test_upset_excludes_failing_filters(self, handmade_vcfs, capsys):
        rc = main(
            [
                "upset", str(handmade_vcfs["a"]),
                "--labels", "only",
            ]
        )
        assert rc == 0
        # Two of the three records pass the PASS/'.' filter.
        import re

        assert re.search(r"only\s+2\b", capsys.readouterr().out)

    def test_upset_single_vcf_matching_label_ok(self, handmade_vcfs, capsys):
        rc = main(
            ["upset", str(handmade_vcfs["b"]), "--labels", "bee"]
        )
        assert rc == 0
        assert "bee" in capsys.readouterr().out


class TestLegacyParallelFlag:
    def test_legacy_flag_runs_and_warns(self, workspace, capsys):
        out = workspace / "calls_legacy.vcf"
        rc = main(
            [
                "call", str(workspace / "sample.bam"),
                "--reference", str(workspace / "ref.fa"),
                "--out", str(out),
                "--legacy-parallel", "--workers", "4",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "double-filtering" in captured.err
        assert out.exists()

    def test_legacy_flag_output_well_formed(self, workspace):
        from repro.io.vcf import read_vcf

        out = workspace / "calls_legacy2.vcf"
        main(
            [
                "call", str(workspace / "sample.bam"),
                "--reference", str(workspace / "ref.fa"),
                "--out", str(out),
                "--legacy-parallel", "--workers", "2",
            ]
        )
        _, records = read_vcf(out)
        assert records, "legacy mode should still find the strong variants"


class TestIndexSubcommand:
    def test_writes_default_bai(self, workspace, capsys):
        bam = workspace / "sample.bam"
        rc = main(["index", str(bam)])
        assert rc == 0
        sidecar = workspace / "sample.bam.bai"
        assert sidecar.exists()
        assert sidecar.read_bytes()[:4] == b"BAI\x01"
        assert "wrote BAI index" in capsys.readouterr().out

    def test_linear_format_gone(self, workspace):
        """BAI is the one on-disk index; ``--format`` went with RMI1."""
        with pytest.raises(SystemExit) as info:
            main(["index", str(workspace / "sample.bam"), "--format", "linear"])
        assert info.value.code == 2

    def test_cut_bam_errors(self, workspace, tmp_path, capsys):
        """A BAM whose last record is cut short inside a valid BGZF
        stream is a one-line error, not a traceback."""
        from repro.io.bgzf import BgzfReader, BgzfWriter

        with BgzfReader(str(workspace / "sample.bam")) as reader:
            payload = reader.read()
        cut = tmp_path / "cut.bam"
        with BgzfWriter(str(cut)) as writer:
            writer.write(payload[:-5])
        rc = main(["index", str(cut)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "cut short" in err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--engine", "streaming"],
            ["--engine", "batched"],
            ["--engine", "batched", "--workers", "2", "--backend", "process"],
        ],
    )
    def test_call_on_cut_bam_errors(self, workspace, tmp_path, capsys, extra):
        """``call`` on a BAM whose last record is cut short exits 2 with
        one ``error:`` line naming the record's voffset, in every engine
        and from forked workers too."""
        from repro.io.bgzf import BgzfReader, BgzfWriter

        with BgzfReader(str(workspace / "sample.bam")) as reader:
            payload = reader.read()
        cut = tmp_path / "cut.bam"
        with BgzfWriter(str(cut)) as writer:
            writer.write(payload[:-5])
        out = tmp_path / "out.vcf"
        rc = main(
            ["call", str(cut), "--reference", str(workspace / "ref.fa"),
             "--out", str(out), *extra]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "cut short" in err and "voffset" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["index"],
            ["call", "--engine", "streaming"],
            ["call", "--engine", "batched"],
        ],
    )
    def test_header_cut_bam_errors(self, workspace, tmp_path, capsys, argv):
        """A BAM cut inside its header is one ``error:`` line and exit
        2 from ``index`` and from ``call`` on either engine."""
        from repro.io.bgzf import BgzfReader, BgzfWriter

        with BgzfReader(str(workspace / "sample.bam")) as reader:
            payload = reader.read()
        cut = tmp_path / "head.bam"
        with BgzfWriter(str(cut)) as writer:
            writer.write(payload[:30])
        out = tmp_path / "out.vcf"
        extra = argv[1:]
        if argv[0] == "call":
            extra += ["--reference", str(workspace / "ref.fa"),
                      "--out", str(out)]
        rc = main([argv[0], str(cut), *extra])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "cut short in text" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--engine", "streaming"],
            ["--engine", "batched"],
            ["--engine", "batched", "--workers", "2", "--backend", "process"],
        ],
    )
    def test_unsorted_bam_errors(self, tmp_path, capsys, extra):
        """``call`` on a BAM whose reads are out of order exits 2 with
        one ``error:`` line, like ``index`` on the same file."""
        from repro.io.bam import write_bam
        from repro.io.records import AlignedRead, SamHeader

        header = SamHeader(references=[("chrU", 200)])
        reads = [
            AlignedRead.simple(f"r{i}", "chrU", pos, "ACGT" * 5, [30] * 20)
            for i, pos in enumerate((50, 10, 60))
        ]
        bam = tmp_path / "unsorted.bam"
        write_bam(bam, header, reads)
        ref = tmp_path / "ref.fa"
        ref.write_text(">chrU\n" + "A" * 200 + "\n")
        out = tmp_path / "out.vcf"
        rc = main(
            ["call", str(bam), "--reference", str(ref), "--out", str(out),
             *extra]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "unsorted" in err or "not coordinate-sorted" in err
        assert not out.exists()
        assert main(["index", str(bam)]) == 2

    @pytest.mark.parametrize("damage", ["deflate", "isize"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["index"],
            ["call", "--engine", "batched"],
            ["call", "--engine", "streaming"],
            ["call", "--workers", "2", "--backend", "process"],
        ],
    )
    def test_corrupt_bgzf_block_errors(
        self, workspace, tmp_path, capsys, damage, argv
    ):
        """A BGZF block with invalid deflate data (a reserved block
        type) or a wrong ISIZE is one ``error:`` line naming the file
        and the block's compressed offset, and exit 2, from ``index``
        and from ``call`` on either engine and with forked workers."""
        from repro.io.bgzf import block_offsets

        src = workspace / "sample.bam"
        raw = bytearray(src.read_bytes())
        start = block_offsets(str(src))[1]
        if damage == "deflate":
            raw[start + 18] = 0x07  # BFINAL=1, BTYPE=11
        else:
            bsize = int.from_bytes(raw[start + 16 : start + 18], "little") + 1
            raw[start + bsize - 4] ^= 0x01
        bad = tmp_path / "bad.bam"
        bad.write_bytes(bytes(raw))
        out = tmp_path / "out.vcf"
        extra = argv[1:]
        if argv[0] == "call":
            extra += ["--reference", str(workspace / "ref.fa"),
                      "--out", str(out)]
        rc = main([argv[0], str(bad), *extra])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert f"{bad}: BGZF block at compressed offset {start}: " in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["index"],
            ["call", "--engine", "batched"],
            ["call", "--engine", "streaming"],
            ["call", "--workers", "2", "--backend", "process"],
        ],
    )
    def test_bam_cut_at_a_block_boundary_errors(
        self, workspace, tmp_path, capsys, argv
    ):
        """A BAM cut where a BGZF block boundary meets a record boundary
        lacks the EOF marker block: one ``error:`` line and exit 2 from
        ``index`` and from ``call`` on either engine and with forked
        workers, instead of silently calling the surviving reads."""
        import io
        import struct

        from repro.io.bgzf import BgzfReader, BgzfWriter

        with BgzfReader(str(workspace / "sample.bam")) as reader:
            data = reader.read()
        # Skip the header, then keep the first 1,000 records.
        (l_text,) = struct.unpack_from("<i", data, 4)
        end = 8 + l_text
        (n_ref,) = struct.unpack_from("<i", data, end)
        end += 4
        for _ in range(n_ref):
            (l_name,) = struct.unpack_from("<i", data, end)
            end += 8 + l_name
        for _ in range(1000):
            (block_size,) = struct.unpack_from("<i", data, end)
            end += 4 + block_size
        assert end < len(data)
        buf = io.BytesIO()
        writer = BgzfWriter(buf)
        writer.write(data[:end])
        writer.flush()  # the last block ends on a record; no EOF marker
        cut = tmp_path / "cut.bam"
        cut.write_bytes(buf.getvalue())
        out = tmp_path / "out.vcf"
        extra = argv[1:]
        if argv[0] == "call":
            extra += ["--reference", str(workspace / "ref.fa"),
                      "--out", str(out), "--all-contigs"]
        capsys.readouterr()
        rc = main([argv[0], str(cut), *extra])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert f"{cut}: BGZF block at compressed offset {len(buf.getvalue())}" in err
        assert "no BGZF EOF marker" in err
        assert not out.exists()

    def test_bai_loads_back(self, workspace):
        from repro.io.bai import BaiIndex

        bam = workspace / "sample.bam"
        main(["index", str(bam)])
        index = BaiIndex.load(workspace / "sample.bam.bai")
        assert len(index.references) == 1

    def test_missing_bam_errors(self, tmp_path, capsys):
        rc = main(["index", str(tmp_path / "absent.bam")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestReferenceErrors:
    """A ``--reference`` that cannot be read as FASTA is one ``error:``
    line and exit 2, not a traceback."""

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "No such file"),
            ("ACGT\n>chr\nACGT\n", "line 1: FASTA data before first '>'"),
            (">a\nAC\n>b\nGT\n>a\nTT\n", "line 5: duplicate FASTA record 'a'"),
        ],
        ids=["missing", "data-before-defline", "duplicate-name"],
    )
    def test_bad_reference_errors(self, workspace, tmp_path, capsys, text, message):
        ref = tmp_path / "bad.fa"
        if text is not None:
            ref.write_text(text)
        out = tmp_path / "out.vcf"
        capsys.readouterr()
        rc = main(
            ["call", str(workspace / "sample.bam"), "--reference", str(ref),
             "--out", str(out)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert message in err and str(ref) in err
        assert not out.exists()


class TestCallIndexAndCache:
    def test_call_with_bai_index_byte_identical(self, workspace):
        bam = workspace / "sample.bam"
        main(["index", str(bam)])
        outs = {}
        for label, extra in [
            ("plain", []),
            ("indexed", ["--index", str(workspace / "sample.bam.bai")]),
        ]:
            out = workspace / f"calls_idx_{label}.vcf"
            rc = main(
                ["call", str(bam),
                 "--reference", str(workspace / "ref.fa"),
                 "--out", str(out),
                 "--region", "NC_045512.2-sim:101-800",
                 *extra]
            )
            assert rc == 0
            outs[label] = out.read_bytes()
        assert outs["indexed"] == outs["plain"]

    def test_call_with_bad_index_errors(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"JUNKJUNKJUNK")
        rc = main(
            ["call", str(workspace / "sample.bam"),
             "--reference", str(workspace / "ref.fa"),
             "--out", str(tmp_path / "x.vcf"),
             "--index", str(bad)]
        )
        assert rc == 2
        assert "magic" in capsys.readouterr().err

    def _call_with_index(self, workspace, tmp_path, index_bytes):
        bam = workspace / "sample.bam"
        index = tmp_path / "bad.bai"
        index.write_bytes(index_bytes)
        return main(
            ["call", str(bam),
             "--reference", str(workspace / "ref.fa"),
             "--out", str(tmp_path / "x.vcf"),
             "--region", "NC_045512.2-sim:101-800",
             "--index", str(index)]
        )

    def test_call_with_truncated_index_errors(self, workspace, tmp_path, capsys):
        from repro.io.index import build_bai_index

        # Past the optional 8-byte n_no_coor trailer, into the intervals.
        data = build_bai_index(workspace / "sample.bam").to_bytes()[:-15]
        capsys.readouterr()
        assert self._call_with_index(workspace, tmp_path, data) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "truncated" in err

    def test_call_with_negative_count_index_errors(
        self, workspace, tmp_path, capsys
    ):
        """``n_bin = -1`` is corruption: it used to load as an empty
        index and the region call wrote no calls."""
        import struct

        from repro.io.index import build_bai_index

        data = bytearray(build_bai_index(workspace / "sample.bam").to_bytes())
        data[8:12] = struct.pack("<i", -1)  # the first reference's n_bin
        capsys.readouterr()
        assert self._call_with_index(workspace, tmp_path, bytes(data)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "negative bin count" in err

    @pytest.mark.parametrize("engine", ["streaming", "batched"])
    def test_region_call_on_cut_bam_errors(self, tmp_path, capsys, engine):
        """A region whose index plan seeks past the end of a BAM cut at
        a BGZF block boundary (the index built before the cut) is one
        ``error:`` line and exit 2."""
        from repro.io.bam import write_bam
        from repro.io.bgzf import block_offsets
        from repro.io.records import AlignedRead, SamHeader

        header = SamHeader(references=[("ctgA", 2000), ("ctgB", 2000)])
        reads = [
            AlignedRead.simple(f"{name}{i}", name, i, "ACGT" * 25, [30] * 100)
            for name, n in (("ctgA", 1500), ("ctgB", 300))
            for i in range(n)
        ]
        full = tmp_path / "full.bam"
        write_bam(full, header, reads)
        assert main(["index", str(full)]) == 0
        ref = tmp_path / "ref.fa"
        ref.write_text(">ctgA\n" + "A" * 2000 + "\n>ctgB\n" + "C" * 2000 + "\n")
        cut = tmp_path / "cut.bam"
        cut.write_bytes(full.read_bytes()[: block_offsets(str(full))[1]])
        out = tmp_path / "out.vcf"
        capsys.readouterr()
        rc = main(
            ["call", str(cut), "--reference", str(ref), "--out", str(out),
             "--region", "ctgB:101-400", "--index", f"{full}.bai",
             "--engine", engine]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert f"{cut}: " in err and "past the end of the file" in err
        assert not out.exists()

    def test_stats_json_has_cache_counters(self, workspace, tmp_path):
        import json

        stats_path = tmp_path / "stats.json"
        rc = main(
            ["call", str(workspace / "sample.bam"),
             "--reference", str(workspace / "ref.fa"),
             "--out", str(tmp_path / "c.vcf"),
             "--stats-json", str(stats_path)]
        )
        assert rc == 0
        stats = json.loads(stats_path.read_text())["stats"]
        assert stats["cache_misses"] > 0
        assert "cache_hit_rate" in stats


class TestMapqProfile:
    def test_aligner_like_exercises_min_mapq(self, tmp_path):
        """An aligner-like mapq mixture gives --min-mapq something to
        drop: filtered calling sees fewer column bases than unfiltered
        (end-to-end through simulate -> call)."""
        import json

        bam = tmp_path / "mapq.bam"
        ref = tmp_path / "mapq_ref.fa"
        rc = main(
            ["simulate", "--genome-length", "700", "--depth", "200",
             "--variants", "4", "--seed", "5",
             "--mapq-profile", "aligner_like",
             "--out-bam", str(bam), "--out-reference", str(ref)]
        )
        assert rc == 0
        depths = {}
        for label, extra in [
            ("all", []),
            ("filtered", ["--min-mapq", "30"]),
        ]:
            stats_path = tmp_path / f"stats_{label}.json"
            rc = main(
                ["call", str(bam), "--reference", str(ref),
                 "--out", str(tmp_path / f"c_{label}.vcf"),
                 "--stats-json", str(stats_path), *extra]
            )
            assert rc == 0
            depths[label] = json.loads(stats_path.read_text())["stats"][
                "columns_seen"
            ]
        # Dropping low-mapq reads must not see MORE columns; with the
        # aligner_like tail some columns lose all coverage.
        assert depths["filtered"] <= depths["all"]

    def test_constant_profile_matches_default(self, tmp_path):
        """--mapq-profile constant is byte-identical to the historical
        constant-60 stamp (the default)."""
        bams = {}
        for label, extra in [
            ("default", []),
            ("constant", ["--mapq-profile", "constant"]),
        ]:
            bam = tmp_path / f"{label}.bam"
            rc = main(
                ["simulate", "--genome-length", "500", "--depth", "100",
                 "--variants", "3", "--seed", "9",
                 "--out-bam", str(bam), *extra]
            )
            assert rc == 0
            bams[label] = bam.read_bytes()
        assert bams["constant"] == bams["default"]

    def test_merge_mapq_changes_calls_with_profile(self, tmp_path):
        """--merge-mapq has bite on an aligner_like BAM: folding a
        20-mapq read's 1% mis-mapping chance into its base qualities
        shifts the error model (the run completes either way)."""
        bam = tmp_path / "mm.bam"
        ref = tmp_path / "mm_ref.fa"
        main(
            ["simulate", "--genome-length", "600", "--depth", "150",
             "--variants", "3", "--seed", "13",
             "--mapq-profile", "aligner_like",
             "--out-bam", str(bam), "--out-reference", str(ref)]
        )
        for extra in ([], ["--merge-mapq"]):
            rc = main(
                ["call", str(bam), "--reference", str(ref),
                 "--out", str(tmp_path / f"out{len(extra)}.vcf"), *extra]
            )
            assert rc == 0

    def test_rejects_unknown_profile(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--out-bam", "x.bam",
                 "--mapq-profile", "weird"]
            )
