"""Compare two sets of end-to-end benchmark results.

Usage::

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by ``run.py --trace 0``
(``benchmarks/e2e/results/`` of a checkout, or a copy of it); files are
found recursively.  One row is printed per (workload, end-to-end
metric): each side's median and quartiles over its runs, the change in
the median, and a label, using the bounds in ``BENCHMARK.json``:

* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``improved``: the change won at least nine tenths of the pairs (runs
  with the same seed; every cross pair when no seed is shared) and the
  medians differ by more than the parent's quartile distance;
* ``unresolved``: the parent's own quartile distance is wider than the
  bound, and not every change run beats every parent run;
* ``unchanged``: otherwise.

Exits 1 on any regression, on a workload or metric the change lacks,
or on a higher share of failed operations than the parent's.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from run import quartiles

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(directory: Path) -> Dict[str, List[dict]]:
    """Untraced result documents under ``directory``, by workload."""
    runs: Dict[str, List[dict]] = {}
    for path in sorted(directory.rglob("*.json")):
        document = json.loads(path.read_text())
        if (isinstance(document, dict) and document.get("trace") == 0
                and "workload" in document):
            runs.setdefault(document["workload"], []).append(document)
    return runs


def classify(parent: Dict[int, float], change: Dict[int, float],
             bound: float, lower_is_better: bool) -> str:
    """Label one metric from per-seed values of each side."""
    sign = 1.0 if lower_is_better else -1.0
    p_first, p_median, p_third = quartiles(list(parent.values()))
    c_median = statistics.median(change.values())
    worse = sign * (c_median - p_median) / p_median
    spread = p_third - p_first
    all_better = all(sign * (c - p) < 0 for c in change.values()
                     for p in parent.values())
    if spread / p_median > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "regressed"
    shared = sorted(set(parent) & set(change))
    pairs = ([(parent[seed], change[seed]) for seed in shared] if shared
             else [(p, c) for p in parent.values() for c in change.values()])
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    if wins >= 0.9 * len(pairs) and -worse * p_median > spread:
        return "improved"
    return "unchanged"


def _cell(values: Dict[int, float]) -> str:
    first, median, third = quartiles(list(values.values()))
    return f"{median:.5g} [{first:.5g}, {third:.5g}]"


def failure_share(runs: List[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare(parent_dir: Path, change_dir: Path,
            benchmark: Optional[dict] = None) -> Tuple[List[str], bool]:
    """The report lines, and whether the change may land."""
    benchmark = benchmark or json.loads(BENCHMARK.read_text())
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    lines = [f"{'workload':<18} {'metric':<16} {'unit':<6} "
             f"{'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} "
             f"{'delta':>8}  label"]
    ok = bool(parent_runs)
    if not ok:
        lines.append(f"no untraced results under {parent_dir}")
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        if workload not in parent_runs:
            continue
        if workload not in change_runs:
            lines.append(f"{workload:<18} missing from {change_dir}")
            ok = False
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            sides = []
            for runs in (parent_runs[workload], change_runs[workload]):
                sides.append({run["seed"]: run["metrics"][name]["value"]
                              for run in runs if name in run["metrics"]})
            parent, change = sides
            if not parent:
                continue
            if not change:
                lines.append(f"{workload:<18} {name:<16} missing from change")
                ok = False
                continue
            label = classify(parent, change, metric["bound"],
                             metric["better"] == "lower")
            ok = ok and label != "regressed"
            delta = (statistics.median(change.values())
                     / statistics.median(parent.values()) - 1.0)
            lines.append(f"{workload:<18} {name:<16} {metric['unit']:<6} "
                         f"{_cell(parent):<34} {_cell(change):<34} "
                         f"{delta:>+8.2%}  {label}")
        parent_share = failure_share(parent_runs[workload])
        change_share = failure_share(change_runs[workload])
        if change_share > parent_share:
            lines.append(f"{workload:<18} failed operations "
                         f"{change_share:.2%} > parent {parent_share:.2%}")
            ok = False
    return lines, ok


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    lines, ok = compare(Path(argv[0]), Path(argv[1]))
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
