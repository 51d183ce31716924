"""Benchmark fixtures.

The full-length Table 1 study is executed once per benchmark session
and shared by every artifact bench; each bench then times its figure
generator and prints the regenerated rows/series (run with ``-s`` to
see them inline; EXPERIMENTS.md records the canonical output).
"""

import os
import sys

import pytest

from repro.experiments.cache import get_study
from repro.experiments.spec import RunSpec

sys.path.insert(0, os.path.dirname(__file__))

from emit_json import write_benchmark_json  # noqa: E402

#: One seed for the whole benchmark corpus, so EXPERIMENTS.md numbers
#: are reproducible bit-for-bit.
STUDY_SEED = 2002


@pytest.fixture(scope="session")
def study():
    """The full-length Table 1 sweep (built once per session)."""
    return get_study(RunSpec(seed=STUDY_SEED, duration_scale=1.0))


def pytest_sessionfinish(session, exitstatus):
    """Write substrate microbenchmark medians as a JSON artifact.

    Only the substrate benches are exported (``BENCH_SUBSTRATE_JSON``
    names the path, default ``BENCH_substrate.json`` in the rootdir);
    runs with ``--benchmark-disable`` produce no stats and write
    nothing.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return
    substrate = [bench for bench in bench_session.benchmarks
                 if "bench_substrate_micro" in bench.fullname
                 or "bench_cc_abr" in bench.fullname
                 or "bench_streaming_fold" in bench.fullname
                 or "bench_flowlevel" in bench.fullname]
    path = os.environ.get(
        "BENCH_SUBSTRATE_JSON",
        os.path.join(str(session.config.rootdir), "BENCH_substrate.json"))
    if write_benchmark_json(substrate, path):
        print(f"\nwrote {path}")
