"""One timed or traced operation set, in a fresh process.

Run as ``python3 perfbench/child.py SPEC.json RESULT.json``.  A fresh
process per timed call keeps peak memory and CPU time to that call
alone.  Every module the program imports lazily is imported before the
clock starts, so imports stay outside every metric.

``SPEC["mode"]`` is ``"batch"`` (one ``repro-lofreq call`` through
``repro.cli.main``), ``"service"`` (set-up of an in-process
``CallService``, then one closed-loop client for ``seconds``),
``"inputs"`` (generate the seeded inputs) or ``"offline"`` (the served
bodies' oracle).  With ``SPEC["trace_dir"]`` set, the layer wrappers of
:mod:`tracing` are installed first and the result carries the
per-layer figures.

The benchmark's own process stays small and starts every process, so
no measured process inherits its memory high-water mark (Linux carries
``ru_maxrss`` across ``exec``).
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import multiprocessing.pool  # noqa: E402,F401  (process backend, lazily)

import repro.cli  # noqa: E402
import repro.core  # noqa: E402,F401
import repro.io.bai  # noqa: E402,F401
import repro.io.bam  # noqa: E402,F401
import repro.io.fasta  # noqa: E402,F401
import repro.io.index  # noqa: E402,F401
import repro.pileup.vectorized  # noqa: E402,F401
import repro.pipeline  # noqa: E402
import repro.serve  # noqa: E402

import tracing  # noqa: E402


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _usage():
    return (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN),
    )


def _analyse(rec: tracing.Recorder, t_begin: float, t_end: float, label: str) -> dict:
    """Per-layer aggregates of one traced interval, plus the Perfetto
    trace and the self-time table."""
    pid = os.getpid()
    spans_by_pid = {pid: list(rec.spans)}
    processes = {pid: label}
    threads = {(pid, t): name for t, name in rec.thread_names.items()}
    counts = dict(rec.counts)
    readers = rec.reader_counters(pid)
    for dump in tracing.load_worker_dumps(rec):
        worker = dump["pid"]
        processes[worker] = f"process-backend worker {worker}"
        spans_by_pid.setdefault(worker, []).extend(dump["spans"])
        threads.update({(worker, t): n for t, n in dump["thread_names"].items()})
        for key, value in dump["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in dump["readers"].items():
            readers[key] += value
    tracks = tracing.by_track(spans_by_pid)
    rows = tracing.self_times(tracks)
    compute = {}
    for name, dur, _own, rid, _track in rows:
        if name == "pipeline.run" and rid is not None:
            compute[rid] = compute.get(rid, 0.0) + dur
    from repro.core.results import RunStats
    from repro.parallel.trace import imbalance_metrics

    stats = RunStats()
    busy_max = barrier = 0.0
    imbalance = []
    for run in rec.pipeline_runs:
        stats.merge(run["stats"])
        metrics = imbalance_metrics(run["events"])
        if metrics:
            busy_max += metrics["busy_max"]
            barrier += metrics["barrier_total"]
            imbalance.append(metrics["imbalance"])
    trace_path = os.path.join(rec.dump_dir, "trace.json.gz")
    tracing.export_perfetto(trace_path, spans_by_pid, processes, threads)
    labels = {
        track: f"{processes[track[0]]} / {threads.get(track, track[1])}"
        for track in tracks
    }
    # the table covers everything traced (a service's set-up included)
    first = min((s[1] for spans in spans_by_pid.values() for s in spans), default=t_begin)
    traced_wall = t_end - min(first, t_begin)
    return {
        "names": tracing.totals(rows),
        "counts": counts,
        "readers": readers,
        "dp_steps": stats.dp_steps,
        "skip_fraction": stats.skip_fraction(),
        "busy_max_s": busy_max,
        "barrier_s": barrier,
        "imbalance": statistics.median(imbalance) if imbalance else 0.0,
        "coverage": tracing.coverage(tracks, t_begin, t_end),
        "compute_s": {str(k): v for k, v in compute.items()},
        "table": tracing.layer_table(rows, traced_wall, labels),
        "trace_path": trace_path,
        "n_spans": len(rows),
    }


def run_batch(spec: dict) -> dict:
    """One CLI call: wall, CPU and peak memory of it and its children,
    and its serial set-up: CLI entry until ``BamSource.prepare`` (the
    index build the process backend runs before it forks) returns."""
    rec = None
    marks = []
    if spec.get("trace_dir"):
        rec = tracing.Recorder(spec["trace_dir"])
        tracing.install(rec)
    else:
        prepare = repro.pipeline.BamSource.prepare

        def marked_prepare(self):
            prepare(self)
            marks.append(perf_counter())

        repro.pipeline.BamSource.prepare = marked_prepare
    self0, kids0 = _usage()
    t0 = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = repro.cli.main(spec["argv"])
    t1 = perf_counter()
    self1, kids1 = _usage()
    out = {
        "rc": rc,
        "wall": t1 - t0,
        "cpu": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "setup": (marks[0] - t0) if marks else None,
    }
    if rec is not None:
        out["layers"] = _analyse(rec, t0, t1, "repro-lofreq call")
    return out


def run_service(spec: dict) -> dict:
    """One set-up (service start plus a warm-up request), then one
    closed-loop client: exactly one request is outstanding at any
    time."""
    from repro.core import CallerConfig
    from repro.pileup.engine import PileupConfig
    from repro.serve import CallRequest, CallService

    rec = None
    if spec.get("trace_dir"):
        rec = tracing.Recorder(spec["trace_dir"])
        tracing.install(rec)
    config = CallerConfig.improved(engine="batched")

    def request(region: str) -> CallRequest:
        return CallRequest(
            bam=spec["bam"],
            region=region,
            reference=spec["fasta"],
            output_format="vcf",
            config=config,
            pileup=PileupConfig(),
        )

    def digest(body: str) -> str:
        return hashlib.sha256(body.encode()).hexdigest()

    t0 = perf_counter()
    service = CallService(default_reference=spec["fasta"])
    try:
        warmup = digest(asyncio.run(service.submit(request(spec["warmup"]))).body)
    except Exception as exc:  # noqa: BLE001 - a failed operation
        warmup = f"error: {type(exc).__name__}: {exc}"
    setup = perf_counter() - t0
    queries = spec["queries"]
    records = []

    async def closed_loop():
        start = perf_counter()
        i = 0
        while True:
            if rec is not None:
                rec.request_id = i
            region = queries[i % len(queries)]
            t0 = perf_counter()
            try:
                resp = await service.submit(request(region))
            except Exception as exc:  # noqa: BLE001 - a failed operation
                t1 = perf_counter()
                records.append([region, t1 - t0, f"error: {type(exc).__name__}: {exc}", False])
            else:
                t1 = perf_counter()
                computed = not (resp.cached or resp.coalesced)
                records.append([region, t1 - t0, digest(resp.body), computed])
            i += 1
            if t1 - start >= spec["seconds"] and i >= spec["min_requests"]:
                return start, t1

    before = service.stats()
    self0, _ = _usage()
    t_begin, t_end = asyncio.run(closed_loop())
    self1, _ = _usage()
    after = service.stats()
    service.close()

    def warm(stats, key):
        return sum(w[key] for w in stats["workers"])

    hits = warm(after, "warm_source_hits") - warm(before, "warm_source_hits")
    misses = warm(after, "warm_source_misses") - warm(before, "warm_source_misses")
    n_requests = after["requests_total"] - before["requests_total"]
    out = {
        "setup": setup,
        "warmup": warmup,
        "requests": records,
        "phase_s": t_end - t_begin,
        "cpu": _cpu(self1) - _cpu(self0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "result_cache_hit_rate": (
            (after["result_cache_hits"] - before["result_cache_hits"]) / n_requests
            if n_requests else 0.0
        ),
        "warm_source_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }
    if rec is not None:
        out["layers"] = _analyse(rec, t_begin, t_end, "CallService")
    return out


def make_inputs(spec: dict) -> dict:
    """Generate the seeded inputs (see :mod:`inputs`)."""
    import numpy

    import inputs

    out = inputs.generate(spec["workload"], spec["seed"], spec["workdir"])
    out["numpy"] = numpy.__version__
    return out


def offline_bodies(spec: dict) -> dict:
    """Body digest of the offline serial ``Pipeline.run()`` per region
    with the streaming engine (the repository's oracle, independent of
    the batched engine the service runs): the oracle for served bodies."""
    from repro.core import CallerConfig
    from repro.io.bam import BamReader
    from repro.io.fasta import load_reference
    from repro.io.index import build_linear_index
    from repro.io.regions import Region, parse_region
    from repro.pipeline import BamSource, Pipeline, VcfSink

    references = load_reference(spec["fasta"])
    with BamReader(spec["bam"]) as reader:
        lengths = dict(reader.header.references)
    index = build_linear_index(spec["bam"])
    config = CallerConfig.improved(engine="streaming")
    digests = {}
    for text in spec["regions"]:
        chrom = text.split(":", 1)[0]
        region = parse_region(text, reference_length=lengths[chrom])
        region = Region(chrom, region.start, min(region.end, lengths[chrom]))
        source = BamSource(spec["bam"], references, regions=[region], index=index)
        buf = io.StringIO()
        Pipeline(
            source, config=config,
            sinks=[VcfSink(buf, contigs=[(chrom, lengths[chrom])])],
        ).run()
        digests[text] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return digests


MODES = {
    "batch": run_batch,
    "service": run_service,
    "inputs": make_inputs,
    "offline": offline_bodies,
}


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    result = MODES[spec["mode"]](spec)
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
