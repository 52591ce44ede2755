"""Command-line interface: ``repro-lofreq``.

Subcommands mirror the original tool-chain:

* ``simulate`` -- generate a synthetic sample (BAM + reference FASTA
  + ground-truth VCF); ``--mapq-profile aligner_like`` stamps a
  realistic mapping-quality mixture so ``call --min-mapq`` /
  ``--merge-mapq`` have something to bite on.
* ``index`` -- write the standard ``.bai`` binning index of a BAM
  (readable by any samtools-compatible tool).  ``call`` needs none:
  without ``--index`` it builds the linear index in memory.
* ``call`` -- call variants on a BAM (original or improved algorithm,
  serial, OpenMP-style parallel, or the legacy buggy parallel mode
  for demonstration); ``--all-contigs`` covers every reference of a
  multi-contig BAM, ``--index`` consumes a pre-built ``.bai``,
  ``--output-format {vcf,jsonl}`` picks the output dialect and
  ``--stats-json`` emits machine-readable run stats.  The subcommand
  is a thin adapter over :mod:`repro.pipeline`; an input that does
  not parse exits 2 with one ``error:`` line.
* ``serve`` -- run the long-running calling service
  (:mod:`repro.serve`): a TCP front end whose requests name
  ``(bam, region, config)``, with request coalescing, warm-reader
  shard workers, a result cache keyed by file fingerprint, and
  graceful drain on SIGINT/SIGTERM.
* ``compare`` -- concordance report between two VCFs (exit 1 when
  the call sets differ).
* ``upset`` -- ASCII upset plot across any number of VCFs (Figure 3).
  Both exit 2 with one ``error:`` line on a VCF that is missing or
  does not parse.

Run ``repro-lofreq <subcommand> --help`` for options, or invoke as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lofreq",
        description="LoFreq-style low-frequency variant calling "
        "(reproduction of Kille et al. 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    p_sim.add_argument("--genome-length", type=int, default=2000)
    p_sim.add_argument("--depth", type=float, default=500.0)
    p_sim.add_argument("--variants", type=int, default=10)
    p_sim.add_argument("--min-freq", type=float, default=0.01)
    p_sim.add_argument("--max-freq", type=float, default=0.10)
    p_sim.add_argument("--read-length", type=int, default=100)
    p_sim.add_argument(
        "--quality-profile",
        choices=["hiseq", "miseq", "long_read"],
        default="hiseq",
    )
    p_sim.add_argument(
        "--mapq-profile",
        choices=["constant", "aligner_like"],
        default=None,
        help="per-read mapping qualities: constant 60s, or an "
        "aligner-like mixture with an ambiguous low-mapq tail "
        "(exercises call --min-mapq / --merge-mapq); default keeps "
        "the historical constant-60 stamp",
    )
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out-bam", required=True)
    p_sim.add_argument("--out-reference")
    p_sim.add_argument("--out-truth")

    p_index = sub.add_parser(
        "index", help="write the standard BAI index of a BAM"
    )
    p_index.add_argument("bam", help="coordinate-sorted BAM to index")
    p_index.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="index path (default: <bam>.bai)",
    )

    p_call = sub.add_parser("call", help="call variants on a BAM")
    p_call.add_argument("bam")
    p_call.add_argument("--reference", required=True, help="FASTA reference")
    p_call.add_argument("--out", required=True, help="output file")
    p_call.add_argument(
        "--output-format",
        choices=["vcf", "jsonl"],
        default="vcf",
        help="format of --out: VCF 4.2 or one JSON object per call",
    )
    p_call.add_argument(
        "--all-contigs",
        action="store_true",
        help="call every reference in the BAM header (default: only "
        "the first, unless --region names another)",
    )
    p_call.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="also write machine-readable run stats as JSON",
    )
    p_call.add_argument(
        "--algorithm",
        choices=["improved", "original"],
        default="improved",
        help="improved = paper's Poisson-approximation shortcut",
    )
    p_call.add_argument(
        "--engine",
        choices=["streaming", "batched"],
        default="batched",
        help="column evaluation: the vectorised chunk-level batched "
        "engine (default) or the per-allele streaming loop, the "
        "reference the batched engine is checked against (identical "
        "output)",
    )
    p_call.add_argument("--alpha", type=float, default=0.05)
    p_call.add_argument("--margin", type=float, default=0.01)
    p_call.add_argument("--min-approx-depth", type=int, default=100)
    p_call.add_argument("--bonferroni", type=int, default=None)
    p_call.add_argument(
        "--min-mapq",
        type=int,
        default=0,
        help="drop reads mapped below this quality (default 0, "
        "LoFreq's parity setting)",
    )
    p_call.add_argument(
        "--min-baseq",
        type=int,
        default=6,
        help="drop individual bases below this quality (default 6, "
        "the LoFreq default)",
    )
    p_call.add_argument(
        "--merge-mapq",
        action="store_true",
        help="fold each read's mapping quality into its error "
        "probability as an independent error source (LoFreq's -m "
        "joint-quality merge); per-read, on both engines",
    )
    p_call.add_argument(
        "--max-depth",
        type=int,
        default=None,
        metavar="N",
        help="per-column depth cap; extra reads are counted but their "
        "bases dropped (default: LoFreq's 1,000,000)",
    )
    p_call.add_argument(
        "--index",
        default=None,
        metavar="PATH",
        help="pre-built .bai index for region seeks (from "
        "'repro-lofreq index' or any samtools-compatible tool); "
        "default builds a linear index in memory when needed",
    )
    p_call.add_argument("--workers", type=int, default=1)
    p_call.add_argument(
        "--schedule",
        choices=["static", "dynamic", "guided"],
        default="dynamic",
        help="chunk schedule of the thread backend (the process "
        "backend assigns chunks round-robin and ignores it)",
    )
    p_call.add_argument(
        "--backend",
        choices=["thread", "process", "serial"],
        default="process",
        help="how --workers N > 1 runs: forked processes (the "
        "default: record decode and deposit hold the GIL, so threads "
        "call slower than one serial worker and processes do not), "
        "threads (the paper's OpenMP analogue) or serial",
    )
    p_call.add_argument("--region", default=None, help="chrom:start-end")
    p_call.add_argument("--stats", action="store_true", help="print run stats")
    p_call.add_argument(
        "--legacy-parallel",
        action="store_true",
        help="use the legacy partition-per-process pipeline (double "
        "dynamic filtering; reproduces the upstream inconsistency bug "
        "-- for demonstration only)",
    )

    p_serve = sub.add_parser(
        "serve", help="run the long-running calling service (TCP)"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    p_serve.add_argument(
        "--port", type=int, default=7341, help="bind port (0 picks a free one)"
    )
    p_serve.add_argument(
        "--reference",
        default=None,
        metavar="FASTA",
        help="default reference for requests that name none",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="shard workers, each holding warm readers and indexes",
    )
    p_serve.add_argument(
        "--max-pending",
        type=int,
        default=32,
        metavar="N",
        help="bound on concurrently pending distinct computations "
        "(backpressure)",
    )
    p_serve.add_argument(
        "--on-full",
        choices=["reject", "wait"],
        default="reject",
        help="beyond --max-pending: reject new requests (default) or "
        "queue the submitter until a slot frees",
    )
    p_serve.add_argument(
        "--result-cache",
        type=int,
        default=256,
        metavar="N",
        help="finished request bodies kept resident (LRU)",
    )
    p_serve.add_argument(
        "--warm-sources",
        type=int,
        default=4,
        metavar="N",
        help="warm BAM sources kept per worker (LRU)",
    )

    p_cmp = sub.add_parser("compare", help="concordance between two VCFs")
    p_cmp.add_argument("vcf_a")
    p_cmp.add_argument("vcf_b")

    p_upset = sub.add_parser("upset", help="ASCII upset plot over VCFs")
    p_upset.add_argument("vcfs", nargs="+")
    p_upset.add_argument(
        "--labels", nargs="+", default=None, help="one label per VCF"
    )
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.io.fasta import write_fasta
    from repro.io.vcf import VcfRecord, write_vcf
    from repro.sim import QualityModel, ReadSimulator, random_panel, sars_cov_2_like

    genome = sars_cov_2_like(length=args.genome_length, seed=args.seed)
    panel = random_panel(
        genome.sequence,
        args.variants,
        freq_range=(args.min_freq, args.max_freq),
        seed=args.seed,
    )
    qm = getattr(QualityModel, args.quality_profile)()
    mapq_profile = None
    if args.mapq_profile is not None:
        from repro.sim.quality import MapqProfile

        mapq_profile = getattr(MapqProfile, args.mapq_profile)()
    simulator = ReadSimulator(
        genome,
        panel,
        quality_model=qm,
        read_length=args.read_length,
        mapq_profile=mapq_profile,
    )
    sample = simulator.simulate(args.depth, seed=args.seed)
    n = sample.write_bam(args.out_bam)
    print(f"wrote {n} reads ({sample.mean_depth:.0f}x) to {args.out_bam}")
    if args.out_reference:
        write_fasta(args.out_reference, [genome])
        print(f"wrote reference to {args.out_reference}")
    if args.out_truth:
        records = [
            VcfRecord(
                chrom=genome.name,
                pos=v.pos,
                ref=v.ref,
                alt=v.alt,
                qual=float("nan"),
                info={"AF": round(v.frequency, 6), "TRUTH": True},
            )
            for v in panel
        ]
        write_vcf(
            args.out_truth,
            records,
            reference=[(genome.name, len(genome))],
            source="repro-sim-truth",
        )
        print(f"wrote {len(records)} truth variants to {args.out_truth}")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    from repro.io.index import build_bai_index

    out = args.out or f"{args.bam}.bai"
    try:
        index = build_bai_index(args.bam)
        index.save(out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    n_bins = sum(len(ref.bins) for ref in index.references)
    print(
        f"wrote BAI index ({len(index.references)} references, "
        f"{n_bins} bins) to {out}"
    )
    return 0


def _resolve_call_regions(args, references, header_refs):
    """Work out which regions to call and which contigs label the
    output header.  Returns ``(regions, contigs)`` or an error string.
    """
    from repro.io.regions import Region, resolve_region

    if args.region and args.all_contigs:
        return "--all-contigs and --region are mutually exclusive"
    if args.region:
        # Resolve the contig from the requested region, not from the
        # header's first reference -- a FASTA covering only the named
        # contig is enough.
        try:
            region = resolve_region(
                args.region, header_refs, references, args.reference
            )
        except ValueError as exc:
            return str(exc)
        return [region], [(region.chrom, dict(header_refs)[region.chrom])]
    if args.all_contigs:
        missing = [n for n, _ in header_refs if n not in references]
        if missing:
            return (
                f"BAM references {missing!r} not in {args.reference}"
            )
        regions = [Region(n, 0, length) for n, length in header_refs]
        return regions, list(header_refs)
    name, length = header_refs[0]
    if name not in references:
        return f"BAM reference {name!r} not in {args.reference}"
    return [Region(name, 0, length)], [(name, length)]


def _cmd_call(args: argparse.Namespace) -> int:
    from repro.core import CallerConfig
    from repro.io import FormatError
    from repro.io.bam import BamReader
    from repro.io.fasta import load_reference
    from repro.pileup.engine import DEFAULT_MAX_DEPTH, PileupConfig
    from repro.pipeline import (
        BamSource,
        ExecutionPolicy,
        JsonlSink,
        Pipeline,
        StatsSink,
        VcfSink,
    )

    try:
        references = load_reference(args.reference)
        with BamReader(args.bam) as reader:
            header_refs = list(reader.header.references)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    resolved = _resolve_call_regions(args, references, header_refs)
    if isinstance(resolved, str):
        print(f"error: {resolved}", file=sys.stderr)
        return 2
    regions, contigs = resolved
    kwargs = dict(
        alpha=args.alpha,
        approx_margin=args.margin,
        approx_min_depth=args.min_approx_depth,
        bonferroni=args.bonferroni,
        engine=args.engine,
        merge_mapq=args.merge_mapq,
    )
    config = (
        CallerConfig.improved(**kwargs)
        if args.algorithm == "improved"
        else CallerConfig.original(**kwargs)
    )
    if args.legacy_parallel:
        print(
            "warning: --legacy-parallel reproduces the double-filtering "
            "bug on purpose; output depends on --workers",
            file=sys.stderr,
        )
        policy = ExecutionPolicy(mode="legacy", n_workers=max(1, args.workers))
    elif args.workers <= 1:
        policy = ExecutionPolicy(mode="serial")
    else:
        serial = args.backend == "serial"
        policy = ExecutionPolicy(
            mode="serial" if serial else args.backend,
            n_workers=1 if serial else args.workers,
            chunk_columns=256,
            schedule=args.schedule,
        )
    if args.output_format == "jsonl":
        sinks = [JsonlSink(args.out)]
    else:
        sinks = [VcfSink(args.out, contigs=contigs)]
    if args.stats_json:
        sinks.append(StatsSink(args.stats_json))
    try:
        pileup_config = PileupConfig(
            min_mapq=args.min_mapq,
            min_baseq=args.min_baseq,
            max_depth=(
                DEFAULT_MAX_DEPTH if args.max_depth is None else args.max_depth
            ),
        )
        source = BamSource(
            args.bam,
            references,
            regions=regions,
            pileup_config=pileup_config,
            index=args.index,
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        result = Pipeline(
            source, config=config, policy=policy, sinks=sinks
        ).run()
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0
    print(
        f"{len(result.passed)} PASS calls ({len(result.calls)} total) "
        f"in {elapsed:.2f}s -> {args.out}"
    )
    if args.stats:
        s = result.stats
        print(f"columns seen      : {s.columns_seen}")
        print(f"allele tests      : {s.tests_run}")
        print(f"approx first-pass : {s.approx_invocations}")
        print(f"exact DP skipped  : {s.exact_skipped} ({s.skip_fraction():.1%})")
        print(f"DP steps          : {s.dp_steps}")
        print(
            f"block cache       : {s.cache_hits} hits / "
            f"{s.cache_misses} misses ({s.cache_hit_rate():.1%}), "
            f"{s.cache_evictions} evictions"
        )
        for k, v in sorted(s.decisions.items()):
            print(f"  decision {k:<22}: {v}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import CallService, run_server

    if args.reference is not None:
        import os

        if not os.path.exists(args.reference):
            print(
                f"error: reference {args.reference!r} does not exist",
                file=sys.stderr,
            )
            return 2
    try:
        service = CallService(
            default_reference=args.reference,
            n_workers=args.workers,
            max_pending=args.max_pending,
            result_cache_entries=args.result_cache,
            warm_sources=args.warm_sources,
            on_full=args.on_full,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_server(service, args.host, args.port)


def _call_sets(paths: Sequence[str]):
    """The ``(chrom, pos, ref, alt)`` keys of each VCF's PASS and ``.``
    records, or the error message for a VCF that is missing or does
    not parse."""
    from repro.io import FormatError
    from repro.io.vcf import read_vcf

    try:
        return [
            {r.key for r in read_vcf(path)[1] if r.filter in ("PASS", ".")}
            for path in paths
        ]
    except (FormatError, OSError) as exc:
        return str(exc)


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis import compare_call_sets

    sets = _call_sets([args.vcf_a, args.vcf_b])
    if isinstance(sets, str):
        print(f"error: {sets}", file=sys.stderr)
        return 2
    report = compare_call_sets(*sets)
    print(report.summary(args.vcf_a, args.vcf_b))
    return 0 if report.identical else 1


def _cmd_upset(args: argparse.Namespace) -> int:
    from repro.analysis import compute_upset, render_upset

    labels = args.labels or args.vcfs
    if len(labels) != len(args.vcfs):
        print("error: --labels count must match VCF count", file=sys.stderr)
        return 2
    sets = _call_sets(args.vcfs)
    if isinstance(sets, str):
        print(f"error: {sets}", file=sys.stderr)
        return 2
    print(render_upset(compute_upset(dict(zip(labels, sets)))))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "index": _cmd_index,
        "call": _cmd_call,
        "serve": _cmd_serve,
        "compare": _cmd_compare,
        "upset": _cmd_upset,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
