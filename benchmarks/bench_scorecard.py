"""The definitive full-scale scorecard: every paper claim must pass.

This bench is the single-command reproduction verdict — the executable
form of EXPERIMENTS.md.
"""

from repro.experiments.scorecard import render_scorecard, run_scorecard


def test_bench_scorecard(benchmark, study):
    results = benchmark(run_scorecard, study)
    print()
    print(render_scorecard(results))
    failures = [r for r in results if not r.passed]
    assert not failures, f"claims failed: {[r.label for r in failures]}"
