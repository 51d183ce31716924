"""Tests for KS comparison and path-stability verification."""

import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.compare import ks_statistic, ks_test
from repro.errors import AnalysisError
from repro.netsim.addressing import IPAddress
from repro.tools.ping import PingReport
from repro.tools.stability import verify_stability
from repro.tools.tracert import TracerouteHop, TracerouteReport

TARGET = IPAddress.parse("64.14.118.1")

#: Few distinct values, so ties dominate: signed zeros, the 1514-byte
#: frame nearly every WMP packet is, infinities, and any finite float.
_TIE_HEAVY = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, 1514.0, 1514, 2.5, -3.0,
                     math.inf, -math.inf]),
    st.floats(allow_nan=False, min_value=-1e6, max_value=1e6))

#: Distinct values within a sample, like the packet gaps ``sec4``
#: compares; the eighths grid still lets the two samples share values.
_DISTINCT = st.lists(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False,
                        min_value=0.0, max_value=10.0),
              st.integers(0, 400).map(lambda k: k * 0.125)),
    min_size=1, max_size=90, unique=True)


def _stepping_ks(first, second):
    """Reference KS statistic that steps over each tied value one at a
    time; ``ks_statistic`` must match it bit for bit."""
    a = sorted(first)
    b = sorted(second)
    i = j = 0
    distance = 0.0
    while i < len(a) and j < len(b):
        value = a[i] if a[i] <= b[j] else b[j]
        while i < len(a) and a[i] == value:
            i += 1
        while j < len(b) and b[j] == value:
            j += 1
        distance = max(distance, abs(i / len(a) - j / len(b)))
    if i < len(a):
        distance = max(distance, 1.0 - i / len(a))
    if j < len(b):
        distance = max(distance, 1.0 - j / len(b))
    return distance


class TestKsStatistic:
    def test_identical_samples_zero(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert ks_statistic(values, list(values)) == 0.0

    def test_disjoint_samples_one(self):
        assert ks_statistic([1.0, 2.0], [10.0, 11.0]) == 1.0

    def test_shifted_distributions_detected(self):
        rng = random.Random(1)
        a = [rng.gauss(0, 1) for _ in range(500)]
        b = [rng.gauss(2, 1) for _ in range(500)]
        assert ks_statistic(a, b) > 0.5

    def test_same_distribution_small_distance(self):
        rng = random.Random(2)
        a = [rng.gauss(0, 1) for _ in range(800)]
        b = [rng.gauss(0, 1) for _ in range(800)]
        assert ks_statistic(a, b) < 0.08

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            ks_statistic([], [1.0])

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3,
                              allow_nan=False), min_size=1, max_size=200),
           st.lists(st.floats(min_value=-1e3, max_value=1e3,
                              allow_nan=False), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_bounded_and_symmetric(self, a, b):
        forward = ks_statistic(a, b)
        backward = ks_statistic(b, a)
        assert 0.0 <= forward <= 1.0
        assert forward == pytest.approx(backward, abs=1e-12)

    @pytest.mark.parametrize("first, second", [
        ([1.0, math.nan], [math.nan, 2.0]),
        ([math.nan], [1.0]),
        ([1.0, 2.0], [3.0, math.nan]),
    ])
    def test_nan_rejected(self, first, second):
        with pytest.raises(AnalysisError, match="NaN"):
            ks_statistic(first, second)
        with pytest.raises(AnalysisError, match="NaN"):
            ks_test(first, second)

    def test_nan_on_both_sides_returns_promptly(self):
        # A NaN on both sides can stall a tie loop forever, so the call
        # runs in a child: a regression fails here instead of hanging.
        src = str(Path(repro.__file__).resolve().parents[1])
        child = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1])\n"
             "from repro.analysis.compare import ks_statistic\n"
             "ks_statistic([1.0, float('nan')], [float('nan'), 2.0])", src],
            capture_output=True, text=True, timeout=60)
        assert child.returncode == 1
        assert "AnalysisError: samples must not contain NaN" in child.stderr

    @given(st.one_of(st.lists(_TIE_HEAVY, min_size=1, max_size=60),
                     _DISTINCT),
           st.one_of(st.lists(_TIE_HEAVY, min_size=1, max_size=90),
                     _DISTINCT))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_stepping_tie_loop_bit_for_bit(self, a, b):
        expected = _stepping_ks(a, b)
        assert ks_statistic(a, b).hex() == expected.hex()
        assert ks_statistic(b, a).hex() == _stepping_ks(b, a).hex()


class TestKsTest:
    def test_same_distribution_high_p(self):
        rng = random.Random(3)
        a = [rng.random() for _ in range(600)]
        b = [rng.random() for _ in range(600)]
        result = ks_test(a, b)
        assert result.similar(alpha=0.01)

    def test_different_distribution_low_p(self):
        rng = random.Random(3)
        a = [rng.random() for _ in range(600)]
        b = [rng.random() * 2 for _ in range(600)]
        result = ks_test(a, b)
        assert result.p_value < 0.001
        assert not result.similar()

    def test_p_value_bounded(self):
        result = ks_test([1.0, 2.0], [1.5, 2.5])
        assert 0.0 <= result.p_value <= 1.0

    def test_identical_samples_are_similar(self):
        # Statistic 0 puts lambda at 0, where the series' terms are
        # +-2 and never converge.
        values = [0.5, 1.0, 1.0, 2.5, 4.0]
        result = ks_test(values, list(values))
        assert (result.statistic, result.p_value) == (0.0, 1.0)
        assert result.similar()

    def test_one_differing_value_in_two_thousand_reads_p_one(self):
        # Distance 1/2000 puts lambda near 0.016, where 100 terms of
        # the series stop far short of Q(lambda), which is 1.0 to
        # double precision.
        rng = random.Random(5)
        first = [rng.random() for _ in range(2000)]
        second = list(first)
        second[0] = 2.0
        result = ks_test(first, second)
        assert result.statistic == pytest.approx(1 / 2000)
        assert result.p_value == 1.0


def make_ping(median_ms):
    rtts = [median_ms / 1000.0] * 4
    return PingReport(target=TARGET, sent=4, received=4, rtts=rtts)


def make_tracert(addresses):
    hops = [TracerouteHop(ttl=index + 1,
                          responder=IPAddress.parse(address),
                          rtts=[0.01 * (index + 1)])
            for index, address in enumerate(addresses)]
    return TracerouteReport(target=TARGET, hops=hops, reached=True)


class TestStability:
    ROUTE = ["10.1.0.1", "10.1.0.2", "64.14.118.1"]

    def test_stable_run(self):
        verdict = verify_stability(make_ping(40), make_ping(45),
                                   make_tracert(self.ROUTE),
                                   make_tracert(self.ROUTE))
        assert verdict.stable
        assert "stable" in verdict.describe()

    def test_route_change_flagged(self):
        changed = ["10.1.0.1", "10.9.9.9", "64.14.118.1"]
        verdict = verify_stability(make_ping(40), make_ping(40),
                                   make_tracert(self.ROUTE),
                                   make_tracert(changed))
        assert verdict.route_changed
        assert not verdict.stable
        assert "route changed" in verdict.describe()

    def test_rtt_shift_flagged(self):
        verdict = verify_stability(make_ping(40), make_ping(120),
                                   make_tracert(self.ROUTE),
                                   make_tracert(self.ROUTE))
        assert verdict.rtt_shifted
        assert not verdict.stable

    def test_moderate_rtt_variation_tolerated(self):
        verdict = verify_stability(make_ping(40), make_ping(65),
                                   make_tracert(self.ROUTE),
                                   make_tracert(self.ROUTE))
        assert verdict.stable

    def test_study_runs_are_stable(self):
        from repro.experiments.datasets import build_table1_library
        from repro.experiments.runner import run_pair_experiment
        from repro.media.library import RateBand

        library = build_table1_library(duration_scale=0.2)
        clip_set = library.get_set(2)
        result = run_pair_experiment(clip_set,
                                     clip_set.pair(RateBand.LOW), seed=3)
        assert result.stability.stable
        assert result.tracert_after.reached
