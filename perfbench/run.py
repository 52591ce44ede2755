#!/usr/bin/env python3
"""The repository's benchmark: two workloads, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload skewed_process2 --seed 1 \\
        --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 1
    python3 perfbench/run.py --report

A run generates its inputs from ``--seed`` (:mod:`inputs`), then
measures for at least ``--seconds``:

* ``skewed_process2``: repeated ``repro-lofreq call`` invocations, each
  in a fresh process (:mod:`child`), at least two; every call's VCF
  must equal, byte for byte, the serial streaming-engine VCF of the
  same input (the repository's oracle);
* ``region_service``: four sessions of ``--seconds / 4``, each a fresh
  process with one set-up of an in-process ``CallService`` followed by
  one closed-loop client (one request outstanding, at least 100
  requests over all four); every served body must equal the offline
  serial streaming-engine ``Pipeline.run()`` body for its region.

Oracles are computed outside the timed calls, between the first timed
sample and the rest (so a run samples the machine's speed at times far
apart), and cached under ``.perfbench/cache`` by input, program and
benchmark digest.

``--trace 0`` prints the end-to-end metrics of :data:`spec.END_TO_END`.
``--trace 1`` makes the same untraced measurement, then one traced
operation set with the layer wrappers of :mod:`tracing`, and prints the
per-layer metrics of :data:`spec.PER_LAYER`, the self-time table and
the path of a Perfetto trace.  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: length of every simulated read (see inputs.READ_LENGTH)
READ_LENGTH = 100
#: fewest timed calls per batch run, so the median is of two
MIN_CALLS = 2
#: fewest timed requests per service run (over all sessions), so p90
#: has ten beyond it
MIN_REQUESTS = 100
#: service sessions per run, each a fresh process with one set-up
#: (setup_s is the median over sessions)
SESSIONS = 4
#: stop adding calls once a run has used this much wall time
SOFT_LIMIT_S = 120.0
CHILD_TIMEOUT_S = 100.0


# -- child processes ------------------------------------------------------------


def start_child(spec: dict, workdir: str, tag: str) -> Tuple[subprocess.Popen, str]:
    """Start :mod:`child` on ``spec`` in a fresh process group."""
    spec_path = os.path.join(workdir, f"{tag}.spec.json")
    result_path = os.path.join(workdir, f"{tag}.result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), spec_path, result_path],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    return proc, result_path


def run_child(spec: dict, workdir: str, tag: str) -> dict:
    """Run :mod:`child` on ``spec`` and return its result."""
    return wait_child(*start_child(spec, workdir, tag))


def wait_child(proc: subprocess.Popen, result_path: str) -> dict:
    """The started child's result, or ``{"error": ...}``.  The whole
    group is killed on timeout, process-backend workers included."""
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"timed out after {CHILD_TIMEOUT_S:.0f}s"}
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        return {"error": f"exit {proc.returncode}: " + " | ".join(tail)}
    with open(result_path) as fh:
        return json.load(fh)


# -- oracles --------------------------------------------------------------------


def _store(path: str, data: bytes) -> None:
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def batch_argv(inputs: dict, out: str, engine: str) -> List[str]:
    argv = ["call", inputs["bam"], "--reference", inputs["fasta"], "--out", out,
            "--engine", engine, "--all-contigs"]
    if engine == "batched":
        argv += ["--workers", "2", "--backend", "process"]
    return argv


def batch_oracle(workload: str, inputs, code: str, workdir: str) -> Optional[bytes]:
    """The serial streaming-engine VCF for these inputs."""
    key = hashlib.sha256(f"{workload}|{inputs['digest']}|{code}".encode()).hexdigest()
    path = os.path.join(OUT, "cache", f"{workload}-{key[:20]}.vcf")
    if not os.path.exists(path):
        out = os.path.join(workdir, "oracle.vcf")
        argv = batch_argv(inputs, out, "streaming")
        result = run_child({"mode": "batch", "argv": argv}, workdir, "oracle")
        if "error" in result or result["rc"] != 0:
            print(f"oracle failed: {result}", file=sys.stderr)
            return None
        with open(out, "rb") as fh:
            _store(path, fh.read())
    with open(path, "rb") as fh:
        return fh.read()


def service_oracle(inputs: dict, regions: List[str], code: str, workdir: str) -> Dict[str, str]:
    """Body digest of the offline serial streaming-engine
    ``Pipeline.run()`` per region, computed in child processes for the
    regions not cached yet."""
    key = hashlib.sha256(f"region_service|{inputs['digest']}|{code}".encode()).hexdigest()
    path = os.path.join(OUT, "cache", f"region_service-{key[:20]}.json")
    known: Dict[str, str] = {}
    if os.path.exists(path):
        with open(path) as fh:
            known = json.load(fh)
    missing = sorted(set(regions) - set(known))
    # two processes, one per core: the oracle is outside every metric
    # and the largest untimed share of a run
    started = [
        start_child({"mode": "offline", "bam": inputs["bam"],
                     "fasta": inputs["fasta"], "regions": missing[i::2]},
                    workdir, f"offline-{i}")
        for i in range(2) if missing[i::2]
    ]
    for child in started:
        result = wait_child(*child)
        if "error" in result:
            print(f"oracle failed: {result['error']}", file=sys.stderr)
        else:
            known.update(result)
    if started:
        _store(path, json.dumps(known).encode())
    return known


# -- workloads ------------------------------------------------------------------


def queries_for(seed: int, chrom: str, length: int, n: int = 5000) -> Tuple[List[str], str]:
    """The seeded closed-loop query stream and a 40 bp warm-up region
    that no query can equal.  Queries are 50-100 bp regions; every
    fourth repeats an earlier one, so a quarter are result-cache hits
    however long a session runs, and p50 and p90 fall among computed
    requests."""
    rng = random.Random(seed)
    queries: List[str] = []
    while len(queries) < n:
        if len(queries) % 4 == 3:
            queries.append(rng.choice(queries))
            continue
        size = rng.randint(50, 100)
        start = rng.randint(0, length - size)
        queries.append(f"{chrom}:{start + 1}-{start + size}")
    start = rng.randint(0, length - 40)
    return queries, f"{chrom}:{start + 1}-{start + 40}"


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Batch:
    """skewed_process2: whole-genome CLI calls.

    The oracle is computed between the first timed call and the rest,
    so the calls sample the machine's speed far apart in time and the
    run's median is not one slow minute."""

    def __init__(self, workload: str, inputs, code: str, workdir: str) -> None:
        self.workload = workload
        self.inputs = inputs
        self.code = code
        self.workdir = workdir
        self.oracle: Optional[bytes] = None
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.n = 0

    def _run(self, trace_dir: Optional[str] = None) -> Tuple[dict, str]:
        self.n += 1
        self.attempted += 1
        out = os.path.join(self.workdir, f"call-{self.n}.vcf")
        spec = {"mode": "batch", "trace_dir": trace_dir,
                "argv": batch_argv(self.inputs, out, "batched")}
        return run_child(spec, self.workdir, f"call-{self.n}"), out

    def _check(self, result: dict, out: str) -> Optional[dict]:
        """The call's result when it ran to completion (exit code 0),
        else ``None``.  A call whose VCF differs from the oracle's bytes
        still counts as a failed operation, but its measurements stand."""
        problem = result.get("error")
        if problem is None and result["rc"] != 0:
            problem = f"exit code {result['rc']}"
        completed = problem is None
        if completed:
            with open(out, "rb") as fh:
                if self.oracle is None or fh.read() != self.oracle:
                    problem = "VCF differs from the streaming-engine oracle"
            os.remove(out)
        if problem is not None:
            self.failed += 1
            self.errors.append(f"call {self.n}: {problem}")
        return result if completed else None

    def call(self, trace_dir: Optional[str] = None) -> Optional[dict]:
        """One checked call; ``None`` when it did not complete."""
        return self._check(*self._run(trace_dir))

    def measure(self, seconds: float, t_run: float) -> List[dict]:
        """Timed calls until they have taken ``seconds`` (at least
        :data:`MIN_CALLS`), the oracle computed after the first."""
        t0 = time.perf_counter()
        first = self._run()
        spent = time.perf_counter() - t0
        t0 = time.perf_counter()
        self.oracle = batch_oracle(self.workload, self.inputs, self.code, self.workdir)
        print(f"  oracle (serial streaming engine): {time.perf_counter() - t0:.1f}s")
        calls = [c for c in [self._check(*first)] if c is not None]
        while self.attempted < MIN_CALLS or (
            spent < seconds and time.perf_counter() - t_run < SOFT_LIMIT_S
        ):
            t0 = time.perf_counter()
            result = self.call()
            spent += time.perf_counter() - t0
            if result is not None:
                calls.append(result)
        return calls

    @staticmethod
    def end_to_end(calls: List[dict]) -> Dict[str, float]:
        walls = [c["wall"] for c in calls]
        out = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(c["cpu"] for c in calls),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in calls),
            "latency_p50_ms": 1000.0 * statistics.median(walls),
            "latency_p90_ms": 1000.0 * p90(walls),
            "throughput_rps": len(walls) / sum(walls),
        }
        # missing (and the run not correct) if the CLI stopped forking
        setups = [c["setup"] for c in calls if c["setup"] is not None]
        if setups:
            out["setup_s"] = statistics.median(setups)
        return out


class Service:
    """region_service: warm in-process CallService, closed loop.

    A run is :data:`SESSIONS` sessions (fresh processes) of ``seconds /
    SESSIONS`` each, all replaying the same query stream, with the first
    session's oracle computed before the second: the sessions sample the
    machine's speed at times far apart."""

    def __init__(self, inputs: dict, seed: int, code: str, workdir: str) -> None:
        self.inputs = inputs
        self.code = code
        self.workdir = workdir
        chrom, length = next(iter(inputs["shape"]["contig_lengths"].items()))
        self.queries, self.warmup = queries_for(seed, chrom, length)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.n = 0

    def session(self, seconds: float, trace_dir=None) -> Optional[dict]:
        """One checked session; ``None`` when the process failed."""
        self.n += 1
        spec = {"mode": "service", "bam": self.inputs["bam"],
                "fasta": self.inputs["fasta"], "queries": self.queries,
                "warmup": self.warmup, "seconds": seconds,
                "min_requests": MIN_REQUESTS // SESSIONS, "trace_dir": trace_dir}
        result = run_child(spec, self.workdir, f"session-{self.n}")
        if "error" in result:
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"session {self.n}: {result['error']}")
            return None
        served = [(r[0], r[2]) for r in result["requests"]]
        served.append((self.warmup, result["warmup"]))
        t0 = time.perf_counter()
        oracle = service_oracle(
            self.inputs, [region for region, _ in served], self.code, self.workdir
        )
        print(f"  session {self.n}: oracle (offline serial streaming Pipeline.run) "
              f"{time.perf_counter() - t0:.1f}s")
        for region, body in served:
            self.attempted += 1
            if body != oracle.get(region):
                self.failed += 1
                if len(self.errors) < 5:
                    what = body if body.startswith("error") else "body differs from the offline oracle"
                    self.errors.append(f"{region}: {what}")
        return result

    def measure(self, seconds: float) -> List[dict]:
        sessions = [self.session(seconds / SESSIONS) for _ in range(SESSIONS)]
        return [s for s in sessions if s is not None]

    def overlapping(self, result: dict) -> int:
        """Reads overlapping every region the session computed."""
        regions = [self.warmup]
        regions += [r[0] for r in result["requests"] if r[3]]
        total = 0
        for text in regions:
            chrom, span = text.split(":", 1)
            start, end = (int(x) for x in span.split("-"))
            starts = self.inputs["starts"][chrom]
            # reads are READ_LENGTH long: [s, s + 100) overlaps [start - 1, end)
            lo = bisect.bisect_left(starts, start - 1 - READ_LENGTH + 1)
            total += bisect.bisect_left(starts, end) - lo
        return total

    @staticmethod
    def end_to_end(sessions: List[dict]) -> Dict[str, float]:
        requests = [r for s in sessions for r in s["requests"]]
        ok = [r[1] for r in requests if not r[2].startswith("error")]
        if not ok:
            return {}
        phase = sum(s["phase_s"] for s in sessions)
        return {
            "wall_s": phase / len(requests),
            "cpu_s": sum(s["cpu"] for s in sessions) / len(requests),
            "peak_rss_mb": max(s["peak_rss_mb"] for s in sessions),
            "setup_s": statistics.median(s["setup"] for s in sessions),
            "latency_p50_ms": 1000.0 * statistics.median(ok),
            "latency_p90_ms": 1000.0 * p90(ok),
            "throughput_rps": len(requests) / phase,
        }


def per_layer(layers: dict, overlapping: int, overhead_s: float,
              service: Optional[dict] = None) -> Dict[str, float]:
    """Map one traced run's aggregates onto :data:`spec.PER_LAYER`."""
    names, counts, readers = layers["names"], layers["counts"], layers["readers"]

    def n(name):
        return names.get(name, {}).get("n", 0)

    def total(name):
        return names.get(name, {}).get("total", 0.0)

    def own(name):
        return names.get(name, {}).get("self", 0.0)

    lookups = readers["cache_hits"] + readers["cache_misses"]
    compute_ms: List[float] = []
    overhead_ms: List[float] = []
    if service is not None:
        for rid, (_region, latency, _body, computed) in enumerate(service["requests"]):
            spent = layers["compute_s"].get(str(rid))
            if computed and spent is not None:
                compute_ms.append(1000.0 * spent)
                overhead_ms.append(1000.0 * (latency - spent))
    return {
        "bgzf.blocks_inflated": readers["blocks_read"],
        "bgzf.inflate_s": readers["time_decompress"],
        "bgzf.cache_hit_rate": readers["cache_hits"] / lookups if lookups else 0.0,
        "bam.records_decoded": n("bam.read_record"),
        "bam.decode_s": own("bam.read_record"),
        "bam.decode_redundancy": n("bam.read_record") / overlapping if overlapping else 0.0,
        "index.builds": n("index.build"),
        "index.build_s": total("index.build"),
        "index.plans": n("index.plan"),
        "index.plan_s": total("index.plan"),
        "pileup.reads_deposited": n("pileup.add_read"),
        "pileup.deposit_s": own("pileup.add_read") + own("pileup.finish"),
        "pileup.columns_built": counts.get("pileup.columns_built", 0),
        "caller.columns_screened": counts.get("caller.columns_screened", 0),
        "caller.screen_s": own("caller.screen"),
        "caller.survivors": counts.get("caller.survivors", 0),
        "caller.exact_s": own("caller.exact"),
        "caller.dp_steps": layers["dp_steps"],
        "caller.skip_fraction": layers["skip_fraction"],
        "caller.filter_s": total("caller.filter"),
        "pipeline.chunks": counts.get("pipeline.chunks", 0),
        "pipeline.busy_max_s": layers["busy_max_s"],
        "pipeline.imbalance": layers["imbalance"],
        "pipeline.barrier_s": layers["barrier_s"],
        "sinks.write_s": total("sinks.write") + total("sinks.finish"),
        "serve.compute_ms": statistics.median(compute_ms) if compute_ms else 0.0,
        "serve.overhead_ms": statistics.median(overhead_ms) if overhead_ms else 0.0,
        "serve.result_cache_hit_rate": service["result_cache_hit_rate"] if service else 0.0,
        "serve.warm_source_hit_rate": service["warm_source_hit_rate"] if service else 0.0,
        "trace.overhead_s": overhead_s,
        "trace.coverage": layers["coverage"],
    }


# -- one run --------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import report
    import spec

    t_run = time.perf_counter()
    calibration_before = report.calibration_s()
    diag = report.diagnostics()
    # oracles are cached per program and benchmark code: both compute them
    code = report.tree_digest(SRC, HERE)
    for sub in ("cache", "work", "traces"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    workdir = os.path.join(OUT, "work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        t0 = time.perf_counter()
        inputs = run_child({"mode": "inputs", "workload": workload, "seed": seed,
                            "workdir": workdir}, workdir, "inputs")
        if "error" in inputs:
            raise RuntimeError(f"input generation failed: {inputs['error']}")
        diag["numpy"] = inputs.pop("numpy")
        print(f"{workload} seed {seed}: inputs {inputs['digest'][:16]} "
              f"{json.dumps(inputs['shape'])} generated in {time.perf_counter() - t0:.1f}s")
        layer_lines: List[str] = []
        trace_file = None
        metrics: Dict[str, float] = {}
        if workload in spec.BATCH_WORKLOADS:
            runner = Batch(workload, inputs, code, workdir)
            calls = runner.measure(seconds, t_run)
            for i, c in enumerate(calls):
                print(f"  call {i + 1}: wall {c['wall']:.3f}s cpu {c['cpu']:.3f}s "
                      f"rss {c['peak_rss_mb']:.0f}MB setup {c['setup'] or float('nan'):.3f}s")
            if calls:
                metrics = runner.end_to_end(calls)
            if trace and calls:
                trace_dir = os.path.join(workdir, "trace")
                os.makedirs(trace_dir)
                traced = runner.call(trace_dir)
                if traced is not None:
                    layers = traced["layers"]
                    overhead = traced["wall"] - statistics.median(c["wall"] for c in calls)
                    metrics = per_layer(layers, inputs["shape"]["reads"], overhead)
                    layer_lines, trace_file = layers["table"], layers["trace_path"]
                    print(f"  traced call: wall {traced['wall']:.3f}s, {layers['n_spans']} spans")
        else:
            runner = Service(inputs, seed, code, workdir)
            sessions = runner.measure(seconds)
            for s in sessions:
                print(f"  set-up {s['setup']:.3f}s, "
                      f"{len(s['requests'])} requests in {s['phase_s']:.2f}s, "
                      f"{sum(1 for r in s['requests'] if r[3])} computed")
            if sessions:
                metrics = runner.end_to_end(sessions)
            if trace and metrics:
                trace_dir = os.path.join(workdir, "trace")
                os.makedirs(trace_dir)
                traced = runner.session(seconds / SESSIONS, trace_dir)
                if traced is not None:
                    layers = traced["layers"]
                    n = len(traced["requests"])
                    overhead = traced["phase_s"] - metrics["wall_s"] * n
                    metrics = per_layer(layers, runner.overlapping(traced), overhead, traced)
                    layer_lines, trace_file = layers["table"], layers["trace_path"]
                    print(f"  traced session: {n} requests, {layers['n_spans']} spans")
        if trace_file is not None:
            kept = os.path.join(OUT, "traces", f"{workload}-seed{seed}-{os.getpid()}.json.gz")
            shutil.move(trace_file, kept)
            print(f"  perfetto trace: {os.path.relpath(kept, ROOT)}")
            print("  per-layer self time (traced run):")
            for line in layer_lines:
                print("  " + line)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in runner.errors:
        print(f"  FAILED {line}")
    table = spec.PER_LAYER if trace else spec.END_TO_END
    wanted = list(table)
    correct = runner.failed == 0 and set(metrics) == set(wanted)
    metrics = {k: metrics.get(k, 0.0) for k in wanted}
    print(f"  {'metric':<28} {'value':>14} {'unit':<6} "
          + ("should move" if trace else "definition"))
    for name in wanted:
        if trace:
            note = spec.SHOULD_MOVE[name]
        else:
            note = spec.DEFINITIONS[name][0 if workload in spec.BATCH_WORKLOADS else 1]
        print(f"  {name:<28} {metrics[name]:14.4f} {table[name]['unit']:<6} {note}")
    calibration_after = report.calibration_s()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "code": code, "time": time.time(),
        "inputs": {"digest": inputs["digest"], **inputs["shape"]},
        "metrics": metrics, "attempted": runner.attempted,
        "failed": runner.failed, "correct": correct,
        "diagnostics": {**diag, "calibration_before_s": calibration_before,
                        "calibration_after_s": calibration_after,
                        "loadavg_after": list(os.getloadavg())},
        "run_s": time.perf_counter() - t_run,
    }
    report.append_record(os.path.join(OUT, "runs.jsonl"), record)
    print(f"  diagnostics: {json.dumps(record['diagnostics'])}")
    print(f"  run took {record['run_s']:.1f}s; {runner.attempted} operations, "
          f"{runner.failed} failed")
    return {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": table[k]["unit"]} for k, v in metrics.items()},
        "code": code,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="print the steadiness report of recorded runs and exit")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: program sources not found at {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import report
    import spec

    if args.report:
        code = report.tree_digest(SRC, HERE)
        report.steadiness(report.load_records(os.path.join(OUT, "runs.jsonl"), code))
        return 0
    if args.workload != "all" and args.workload not in spec.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(spec.WORKLOADS)} or all")
    workloads = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in workloads}
    records = report.load_records(os.path.join(OUT, "runs.jsonl"),
                                  results[workloads[0]]["code"])
    report.steadiness(records, workloads)
    if len(workloads) == 1:
        final = results[workloads[0]]
        final.pop("code")
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
