"""What the benchmark measures: workloads, metrics, bounds.

Names, units, directions, bounds and each workload's reason are read
from ``BENCHMARK.json`` at the repository root.  This module adds what
that file has no key for: how each end-to-end metric is defined on each
workload, and which end-to-end metric on which workload each per-layer
metric should move.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Tuple

with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json")) as _fh:
    _BENCHMARK = json.load(_fh)

#: workload -> one-line reason it is in the benchmark
WORKLOADS: Dict[str, str] = {w["name"]: w["why"] for w in _BENCHMARK["workloads"]}
#: end-to-end metric -> its BENCHMARK.json entry (unit, better, bound)
END_TO_END: Dict[str, dict] = {m["name"]: m for m in _BENCHMARK["end_to_end"]}
#: per-layer metric -> its BENCHMARK.json entry (unit, better)
PER_LAYER: Dict[str, dict] = {m["name"]: m for m in _BENCHMARK["per_layer"]}

#: the workloads whose operation is one whole-genome CLI call
BATCH_WORKLOADS = ("skewed_process2",)

#: end-to-end metric -> (batch definition, region_service definition)
DEFINITIONS: Dict[str, Tuple[str, str]] = {
    "wall_s": (
        "median call wall, first program call (reference load) to VCF closed",
        "timed-phase seconds per completed request (all sessions)",
    ),
    "cpu_s": (
        "median user+system CPU of the call process and its children",
        "user+system CPU of the service process per completed request",
    ),
    "peak_rss_mb": (
        "median over calls of the max resident set of the call process "
        "and its children",
        "max resident set of the service process",
    ),
    "setup_s": (
        "median serial set-up per call: CLI entry to the end of the index "
        "build, where the process backend forks",
        "median of 4 set-ups (one per session): service start plus a "
        "warm-up request that builds the index",
    ),
    "latency_p50_ms": (
        "median call wall in ms (one call is one operation)",
        "median request latency, submit to response",
    ),
    "latency_p90_ms": (
        "p90 of the call walls; fewer than ten calls lie beyond it, so it "
        "reads as the slowest call",
        "p90 request latency, with at least ten samples beyond it",
    ),
    "throughput_rps": (
        "calls per second of call wall (one over the mean call wall)",
        "requests completed per timed-phase second",
    ),
}

#: per-layer metric -> the end-to-end metric and workload it should move
SHOULD_MOVE: Dict[str, str] = {
    "bgzf.blocks_inflated":
        "latency_p50_ms on region_service; ~1% of skewed_process2 wall_s",
    "bgzf.inflate_s":
        "latency_p50_ms on region_service; ~1% of skewed_process2 wall_s",
    "bgzf.cache_hit_rate": "latency_p50_ms on region_service",
    "bam.records_decoded":
        "wall_s and cpu_s on skewed_process2; latency_p50_ms on region_service",
    "bam.decode_s":
        "wall_s and cpu_s on skewed_process2 (~45% of worker time, most of "
        "the index build); latency_p50_ms on region_service",
    "bam.decode_redundancy":
        "wall_s on skewed_process2; latency_p50_ms on region_service",
    "index.builds": "wall_s and setup_s on skewed_process2; setup_s on region_service",
    "index.build_s":
        "wall_s and setup_s on skewed_process2 (~2 s of ~5 s, serial before "
        "the fork); setup_s on region_service",
    "index.plans": "latency_p50_ms on region_service",
    "index.plan_s": "wall_s on skewed_process2; latency_p50_ms on region_service",
    "pileup.reads_deposited": "wall_s and cpu_s on skewed_process2",
    "pileup.deposit_s":
        "wall_s and cpu_s on skewed_process2 (~40% of worker time); "
        "latency_p50_ms on region_service",
    "pileup.columns_built": "wall_s on skewed_process2",
    "caller.columns_screened": "wall_s on skewed_process2",
    "caller.screen_s": "wall_s on skewed_process2",
    "caller.survivors": "wall_s on skewed_process2",
    "caller.exact_s":
        "wall_s on skewed_process2 (screen + exact ~15% of worker time)",
    "caller.dp_steps": "wall_s on skewed_process2",
    "caller.skip_fraction": "wall_s on skewed_process2",
    "caller.filter_s": "wall_s on skewed_process2",
    "pipeline.chunks": "wall_s on skewed_process2 only",
    "pipeline.busy_max_s": "wall_s on skewed_process2 only",
    "pipeline.imbalance": "wall_s on skewed_process2 only",
    "pipeline.barrier_s": "wall_s on skewed_process2 only",
    "sinks.write_s": "wall_s on skewed_process2",
    "serve.compute_ms": "latency_p50_ms and throughput_rps on region_service only",
    "serve.overhead_ms": "latency_p50_ms and throughput_rps on region_service only",
    "serve.result_cache_hit_rate":
        "latency_p50_ms and throughput_rps on region_service only",
    "serve.warm_source_hit_rate":
        "latency_p50_ms and throughput_rps on region_service only",
    "trace.overhead_s": "n/a: traced run minus the median untraced run",
    "trace.coverage":
        "n/a: share of wall inside some layer's span (gaps are unattributed)",
}

for _name, _table, _listed in (("end_to_end", DEFINITIONS, END_TO_END),
                               ("per_layer", SHOULD_MOVE, PER_LAYER)):
    if set(_table) != set(_listed):
        raise RuntimeError(
            f"BENCHMARK.json {_name} metrics {sorted(_listed)} do not match "
            f"perfbench/spec.py {sorted(_table)}"
        )
