#!/usr/bin/env python
"""Compare a fresh benchmark-medians artifact against the baseline.

CI times the substrate microbenchmarks into ``BENCH_substrate.ci.json``
and runs this script against the committed ``BENCH_substrate.json``.
A regression of more than ``--threshold`` (default 25%) on a *guarded*
benchmark — the event-loop bench and the end-to-end study benches —
fails the build; every other bench is reported but only advisory, and
a bench present on one side only is reported as such.

Both artifacts' machine shapes (Python, platform, CPU count, affinity
CPUs) are printed first, with a note when they differ: medians from
differently shaped machines are not like for like.  The note never
changes the exit code, and an artifact written before the emitter
recorded CPUs (the keys are missing) reads as "unrecorded".

Usage::

    python scripts/bench_compare.py BASELINE.json FRESH.json \
        [--threshold 0.25]

Exits 0 when no guarded bench regressed past the threshold, 1 with one
line per offending bench when one did.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

#: Benches whose regression fails the build (the rest are advisory:
#: CI-runner noise on sub-10ms benches would make them flaky gates).
GUARDED = frozenset({
    "test_bench_event_loop",
    "test_bench_study_sequential",
    "test_bench_study_parallel",
    "test_bench_study_aimd",
    "test_bench_study_abr",
    "test_bench_study_repair",
    "test_bench_streaming_fold",
    "test_bench_flowlevel_uncontended_delivery",
    "test_bench_flowlevel_study",
})

DEFAULT_THRESHOLD = 0.25

#: The artifact keys that describe the machine a timing came from.
SHAPE_KEYS = ("python", "platform", "cpu_count", "affinity_cpus")


def load_artifact(path: str) -> dict:
    with open(path) as stream:
        return json.load(stream)


def medians(document: dict) -> Dict[str, float]:
    return {bench["name"]: bench["median_seconds"]
            for bench in document["benchmarks"]}


def shape_report(baseline: dict, fresh: dict) -> List[str]:
    """Lines describing both artifacts' machine shapes, ending with a
    note naming the keys that differ (a key missing from an artifact
    counts as differing)."""
    def describe(document: dict) -> str:
        return ", ".join(
            f"{key} {document[key] if key in document else 'unrecorded'}"
            for key in SHAPE_KEYS)

    lines = [f"  baseline machine: {describe(baseline)}",
             f"  fresh machine:    {describe(fresh)}"]
    differing = [key for key in SHAPE_KEYS
                 if baseline.get(key, "unrecorded")
                 != fresh.get(key, "unrecorded")]
    if differing:
        lines.append(f"  note: machine shapes differ in "
                     f"{', '.join(differing)}; the medians are not "
                     "like for like")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed medians JSON")
    parser.add_argument("fresh", help="freshly-timed medians JSON")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="allowed fractional regression on guarded "
                             "benches (default %(default)s)")
    args = parser.parse_args(argv)

    baseline_document = load_artifact(args.baseline)
    fresh_document = load_artifact(args.fresh)
    for line in shape_report(baseline_document, fresh_document):
        print(line)
    baseline = medians(baseline_document)
    fresh = medians(fresh_document)

    failures = []
    for name in sorted(baseline.keys() | fresh.keys()):
        old = baseline.get(name)
        new = fresh.get(name)
        guarded = name in GUARDED
        tag = "guarded" if guarded else "advisory"
        if old is None:
            print(f"  {name}: new bench, no baseline ({new:.6f}s)")
            continue
        if new is None:
            print(f"  {name}: missing from fresh run [{tag}]")
            if guarded:
                failures.append(f"{name}: guarded bench did not run")
            continue
        change = (new - old) / old
        print(f"  {name}: {old:.6f}s -> {new:.6f}s "
              f"({change:+.1%}) [{tag}]")
        if guarded and change > args.threshold:
            failures.append(
                f"{name}: median regressed {change:+.1%} "
                f"(limit +{args.threshold:.0%})")

    seq = fresh.get("test_bench_study_sequential")
    par = fresh.get("test_bench_study_parallel")
    if seq and par:
        print(f"  study speedup (sequential/parallel): {seq / par:.2f}x")

    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("benchmark medians within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
