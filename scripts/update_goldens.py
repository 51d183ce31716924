#!/usr/bin/env python
"""Re-pin the golden-trace regression digests under tests/golden/.

Run this after an *intentional* behavior change (new event type, packet
schedule tweak, span-format bump), inspect the resulting diff, and
commit the updated JSON files alongside the change.  A golden diff you
cannot explain is a regression — fix the code, not the golden.

Usage:
    python scripts/update_goldens.py              # refresh every scenario
    python scripts/update_goldens.py baseline_pair  # just one
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.validate.golden import (  # noqa: E402 (path bootstrap above)
    GOLDEN_SCENARIOS,
    compare_golden,
    compute_golden,
    default_golden_dir,
    golden_path,
    load_golden,
    write_golden,
)


def main(argv: list) -> int:
    names = argv or sorted(GOLDEN_SCENARIOS)
    unknown = [name for name in names if name not in GOLDEN_SCENARIOS]
    if unknown:
        known = ", ".join(sorted(GOLDEN_SCENARIOS))
        print(f"unknown golden scenario(s): {', '.join(unknown)}; "
              f"known: {known}", file=sys.stderr)
        return 2
    directory = default_golden_dir()
    for name in names:
        scenario = GOLDEN_SCENARIOS[name]
        path = golden_path(name, directory)
        previous = load_golden(path) if path.is_file() else None
        document = compute_golden(scenario)
        if previous == document:
            print(f"{name}: unchanged ({path})")
            continue
        write_golden(document, path)
        changed = "rewritten" if previous is not None else "created"
        print(f"{name}: {changed} ({path})")
        if previous is not None:
            for line in compare_golden(previous, document):
                print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
