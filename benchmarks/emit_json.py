"""Benchmark-result JSON artifacts.

CI runs the substrate microbenchmarks on every push and uploads the
medians as a build artifact (``BENCH_substrate.json``), so a perf
regression in the hot paths shows up as a diffable number, not a
feeling.  The emitter is deliberately tiny and dependency-free: it
reads the session's pytest-benchmark stats and writes one JSON object
per benchmark with the median (the robust central estimate the
acceptance criteria key on) plus enough context to judge it: the
Python version and the machine's shape (CPU count and the CPUs this
process may run on), without which a timing cannot back a claim.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from typing import Dict, Iterable, List, Optional

try:
    import resource
except ImportError:  # non-POSIX platform: omit the RSS field
    resource = None


def peak_rss_kb() -> int:
    """Peak resident-set size of this process in KiB (0 if unknown).

    ``ru_maxrss`` is KiB on Linux; session-scoped, so it reflects the
    high-water mark across every bench that ran, which is exactly the
    memory-flatness signal the streaming work is guarded on.
    """
    if resource is None:
        return 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def machine_shape() -> Dict[str, Optional[int]]:
    """The CPUs the benchmarks ran with.

    ``affinity_cpus`` counts the CPUs this process may be scheduled on
    (``os.sched_getaffinity``); it is ``None`` on platforms without
    that call.  A parallel bench with more workers than these CPUs is
    oversubscribed, and only the artifact can say so.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    return {"cpu_count": os.cpu_count(),
            "affinity_cpus": (len(getaffinity(0))
                              if getaffinity is not None else None)}


def benchmark_records(benchmarks: Iterable[object]) -> List[Dict[str, object]]:
    """Flatten pytest-benchmark ``Metadata`` objects to JSON-able rows.

    Benchmarks that never ran (``--benchmark-disable``, errors) carry
    no rounds and are skipped.
    """
    records: List[Dict[str, object]] = []
    for bench in benchmarks:
        stats = getattr(bench, "stats", None)
        if stats is None or not getattr(stats, "rounds", 0):
            continue
        records.append({
            "name": bench.name,
            "fullname": bench.fullname,
            "median_seconds": stats.median,
            "mean_seconds": stats.mean,
            "stddev_seconds": stats.stddev,
            "min_seconds": stats.min,
            "max_seconds": stats.max,
            "rounds": stats.rounds,
            "iterations": getattr(bench, "iterations", 1),
        })
    records.sort(key=lambda record: record["fullname"])
    return records


def write_benchmark_json(benchmarks: Iterable[object], path: str) -> bool:
    """Write the artifact; returns False (and writes nothing) when no
    benchmark actually ran."""
    records = benchmark_records(benchmarks)
    if not records:
        return False
    document = {
        "python": platform.python_version(),
        "platform": sys.platform,
        **machine_shape(),
        "peak_rss_kb": peak_rss_kb(),
        "benchmarks": records,
    }
    with open(path, "w") as stream:
        json.dump(document, stream, indent=2, sort_keys=True)
        stream.write("\n")
    return True
