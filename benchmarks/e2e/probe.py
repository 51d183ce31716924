"""One fresh-process start-up of a workload, started and timed by ``run.py``.

A start-up is the program's imports, the Table 1 library build and a
one-set sweep (which forks the pool for ``jobs=2``).  The machine's
speed is sampled from before the imports on (``speed.py``); the last
line of standard output is ``{"speed": ..., "handler_s": ...}``, from
which ``run.py`` turns the wall time into reference seconds.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from speed import Sampler


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--study-seed", type=int, required=True)
    args = parser.parse_args(argv)
    sampler = Sampler(1)
    sampler.on(0)
    from measure import (WORKLOADS, build_table1_library, one_set, run_study,
                         study_kwargs)

    workload = WORKLOADS[args.workload]
    library = build_table1_library(duration_scale=workload.scale)
    if workload.jobs > 1:
        # This process only waits while the pool works; a sample taken
        # now would measure contention with its own workers.
        sampler.off()
    run_study(one_set(library), seed=args.study_seed, min_parallel_runs=0,
              **study_kwargs(workload, args.study_seed))
    sampler.off()
    speed, handler_s = sampler.read([0])
    print(json.dumps({"speed": speed, "handler_s": handler_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
