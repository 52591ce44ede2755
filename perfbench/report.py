"""Run records, machine diagnostics and the steadiness report.

Every run appends one JSON line to ``.perfbench/runs.jsonl`` in the
checkout.  The steadiness report reads the untraced runs of the same
program and benchmark code back and prints, per workload and metric,
the median, the quartiles and the spread (interquartile range over the
median), marking a metric unresolved when its spread exceeds its bound.

Diagnostics (cores, CPU model, versions, load average, a fixed
calibration loop timed before and after the run) are recorded to
explain unsteady figures; they never scale a metric.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
from time import perf_counter
from typing import Dict, List

from spec import END_TO_END, WORKLOADS


def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop (CPU-speed diagnostic)."""
    t0 = perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i * i % 7
    return perf_counter() - t0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def diagnostics() -> Dict[str, object]:
    """Machine facts recorded with every run (the numpy version comes
    from the process that imports it)."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "cores": os.cpu_count(),
        "usable_cores": usable,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


def tree_digest(*roots: str) -> str:
    """Digest of every source file under ``roots`` (program + benchmark),
    so records of different code never mix."""
    h = hashlib.sha256()
    for root in roots:
        for base, dirs, files in sorted(os.walk(root)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def append_record(path: str, record: dict) -> None:
    with open(path, "a") as fh:
        fh.write(json.dumps(record) + "\n")


def load_records(path: str, code: str) -> List[dict]:
    """Untraced run records of this code."""
    if not os.path.exists(path):
        return []
    out = []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("code") == code and rec.get("trace") == 0:
                out.append(rec)
    return out


def steadiness(records: List[dict], workloads=None) -> None:
    """Median, quartiles and spread per workload and metric."""
    for workload in workloads or WORKLOADS:
        runs = [r for r in records if r["workload"] == workload]
        if not runs:
            continue
        seeds = sorted({r["seed"] for r in runs})
        print(
            f"steadiness {workload}: {len(runs)} untraced runs, "
            f"seeds {seeds}"
        )
        print(
            f"  {'metric':<16} {'unit':<5} {'median':>11} {'q1':>11} "
            f"{'q3':>11} {'spread':>7} {'bound':>6}"
        )
        for name, entry in END_TO_END.items():
            unit, bound = entry["unit"], entry["bound"]
            values = [r["metrics"][name] for r in runs if name in r["metrics"]]
            if not values:
                continue
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / med if med else 0.0
            flag = "" if len(values) >= 2 else "  (one run)"
            if spread > bound:
                flag = "  UNRESOLVED"
            print(
                f"  {name:<16} {unit:<5} {med:11.4f} {q1:11.4f} {q3:11.4f} "
                f"{spread:7.3f} {bound:6.2f}{flag}"
            )
