"""Scorecard tests: all claims execute; full-scale claims hold.

The reduced-scale fixture here only verifies *mechanics* (every check
runs and reports); the definitive full-scale scorecard is executed by
the benchmark and the CLI.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments.runner import StudyResults, run_study
from repro.experiments.scorecard import (
    ScoreRow,
    render_scorecard,
    run_scorecard,
)


@pytest.fixture(scope="module")
def study():
    # Scale 0.35 keeps set 2's low pair long enough for every check
    # while staying fast.
    return run_study(seed=7007, duration_scale=0.35)


class TestScorecardMechanics:
    def test_every_check_executes(self, study):
        results = run_scorecard(study)
        assert len(results) >= 15
        artifacts = {r.artifact for r in results}
        assert {"fig01", "fig05", "fig11", "fig14", "core",
                "method"} <= artifacts
        for result in results:
            (measured,) = result.cells
            assert measured  # every check reports a measurement

    def test_core_claims_hold_even_at_reduced_scale(self, study):
        results = {r.label: r for r in run_scorecard(study)}
        for claim in ("Real never fragments",
                      "no WMP fragmentation below 100 Kbps",
                      "~66% WMP fragmentation near 300 Kbps",
                      "profiles classify both products correctly",
                      "Real encodes below WMP for every pair",
                      "every run's path verified stable",
                      "low band: Real's frame rate clearly above WMP's"):
            assert results[claim].passed, claim

    def test_render_includes_verdict_line(self, study):
        results = run_scorecard(study)
        text = render_scorecard(results)
        assert "paper claims reproduce" in text
        assert "PASS" in text

    def test_render_flags_failures(self):
        results = [ScoreRow(artifact="x", label="c", cells=("m",),
                            passed=False)]
        text = render_scorecard(results)
        assert "FAILURES" in text
        assert "FAIL" in text

    def test_empty_study_rejected(self):
        with pytest.raises(ExperimentError):
            run_scorecard(StudyResults())
