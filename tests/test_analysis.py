"""Analysis-toolkit tests: distributions, series, trends, reporting."""

import math
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro import units
from repro.analysis.bandwidth import (
    average_kbps,
    bandwidth_series,
    rate_series,
)
from repro.analysis.buffering import (
    buffering_ratio_vs_playout,
    detect_buffering_phase,
    measured_ratio,
)
from repro.analysis.distributions import (
    cdf,
    cdf_at,
    histogram,
    pdf,
    percentile,
    pstdev,
    summarize,
)
from repro.analysis.fragmentation import (
    expected_fragment_percent,
    fragmentation_sweep_point,
)
from repro.analysis.framerate import BandSummary, ClipPoint, summarize_by_band
from repro.analysis.interarrival import (
    first_of_group_interarrivals,
    interarrival_times,
    normalized_interarrivals,
)
from repro.analysis.normalize import (
    coefficient_of_variation,
    normalize_by_mean,
    summary_cv,
)
from repro.analysis.report import ascii_plot, format_table, render_cdf
from repro.analysis.trends import fit_polynomial_trend
from repro.capture.trace import Trace
from repro.core.generator import generate_flow
from repro.errors import AnalysisError
from repro.media.clip import PlayerFamily
from repro.media.library import RateBand

from .helpers import make_fragment_train, make_record


class TestSummarize:
    def test_basic_statistics(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == 2.5
        assert summary.median == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.count == 4

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            summarize([])


#: Value kinds the figures feed the deviation, and its hard cases.
_DEVIATION_VALUES = [
    st.integers(-10**6, 10**6).map(float),  # integral floats: sizes
    st.floats(0.0, 1e-3),  # sub-millisecond gaps
    st.floats(-1e-307, 1e-307),  # subnormals and the smallest normals
    st.floats(-1e300, 1e300),  # magnitudes up to 1e300, negatives
    st.integers(-2**200, 2**200),  # big ints
    st.integers(-1000, 1000),  # small ints
]
_DEVIATION_SAMPLES = st.one_of(
    *(st.lists(kind, min_size=2, max_size=200)
      for kind in _DEVIATION_VALUES),
    # int/float mixes and mixed magnitudes
    st.lists(st.one_of(*_DEVIATION_VALUES), min_size=2, max_size=200),
    # heavy ties: a few values, each repeated
    st.lists(st.one_of(*_DEVIATION_VALUES), min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=2,
                              max_size=200)),
)


class TestPstdev:
    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="the stdlib pstdev rounds twice before 3.11")
    @given(_DEVIATION_SAMPLES)
    @example([35.0, 41.0, 54.0])  # a root that round-to-odd must fix
    @example([0.0, -0.0])
    @example([5e-324, 0.0])
    @example([1e308, -1e308])
    @settings(max_examples=500, deadline=None)
    def test_equals_the_stdlib_bit_for_bit(self, values):
        assert pstdev(values).hex() == statistics.pstdev(values).hex()

    @pytest.mark.parametrize("values, expected", [
        ([35.0, 41.0, 54.0], "0x1.fb893d98cd225p+2"),
        ([0.0, -0.0], "0x0.0p+0"),
        ([5e-324, 0.0], "0x0.0p+0"),  # exactly half the least subnormal
        ([1e308, -1e308], (1e308).hex()),
        ([7.5], "0x0.0p+0"),
    ], ids=repr)
    def test_correctly_rounded_examples(self, values, expected):
        assert pstdev(values).hex() == expected

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError, match="empty"):
            pstdev([])


class TestPercentile:
    def test_median_and_extremes(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 100

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            percentile([], 50)
        with pytest.raises(AnalysisError):
            percentile([1.0], 101)


class TestHistogramAndPdf:
    def test_histogram_counts(self):
        points = histogram([0.5, 1.5, 1.6, 2.5], bin_width=1.0,
                           value_range=(0.0, 3.0))
        assert [count for _, count in points] == [1, 2, 1]

    def test_pdf_fractions_sum_to_one(self):
        points = pdf([1, 1, 2, 3, 3, 3], bins=3)
        assert sum(fraction for _, fraction in points) == pytest.approx(1.0)

    def test_pdf_peak_location(self):
        values = [900] * 80 + [500] * 10 + [1300] * 10
        points = pdf(values, bin_width=100, value_range=(400, 1400))
        peak_center, peak_density = max(points, key=lambda p: p[1])
        assert 850 <= peak_center <= 950
        assert peak_density == pytest.approx(0.8)

    def test_conflicting_bin_settings_rejected(self):
        with pytest.raises(AnalysisError):
            histogram([1.0], bin_width=1.0, bins=3)

    def test_out_of_range_values_ignored(self):
        points = histogram([1.0, 5.0, 100.0], bin_width=1.0,
                           value_range=(0.0, 10.0))
        assert sum(count for _, count in points) == 2


class TestCdf:
    def test_steps_are_monotone_and_end_at_one(self):
        points = cdf([3.0, 1.0, 2.0, 2.0])
        values = [v for v, _ in points]
        fractions = [f for _, f in points]
        assert values == sorted(values)
        assert fractions[-1] == 1.0
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))

    def test_duplicates_collapse(self):
        points = cdf([1.0, 1.0, 2.0])
        assert points == [(1.0, pytest.approx(2 / 3)), (2.0, 1.0)]

    def test_cdf_at_evaluation(self):
        points = cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf_at(points, 0.5) == 0.0
        assert cdf_at(points, 2.0) == 0.5
        assert cdf_at(points, 10.0) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            cdf([])

    def test_infinities_sort_to_the_ends(self):
        inf = float("inf")
        assert cdf([inf, 1.0, -inf, 1.0]) == [(-inf, 0.25), (1.0, 0.75),
                                               (inf, 1.0)]

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_cdf_properties(self, values):
        points = cdf(values)
        fractions = [f for _, f in points]
        assert fractions[-1] == pytest.approx(1.0)
        assert all(0 < f <= 1.0 + 1e-9 for f in fractions)
        assert [v for v, _ in points] == sorted(set(values))


NAN = float("nan")
INF = float("inf")

#: Samples holding a NaN or an infinity, beside a finite value or alone.
NON_FINITE = [[1.0, NAN], [NAN, 1.0], [NAN], [1.0, INF], [1.0, -INF],
              [INF]]
#: The NaN samples alone: a CDF keeps the infinities, which sort.
WITH_NAN = [values for values in NON_FINITE
            if any(math.isnan(value) for value in values)]


class TestNonFiniteSamples:
    """Each helper's documented error is AnalysisError, NaN included."""

    @pytest.mark.parametrize("values", NON_FINITE, ids=repr)
    def test_summarize_refuses(self, values):
        with pytest.raises(AnalysisError, match="non-finite"):
            summarize(values)

    @pytest.mark.parametrize("values", NON_FINITE, ids=repr)
    def test_coefficient_of_variation_refuses(self, values):
        with pytest.raises(AnalysisError, match="non-finite"):
            coefficient_of_variation(values)

    @pytest.mark.parametrize("binning", [
        {"bins": 4}, {}, {"bin_width": 0.5},
        {"bin_width": 0.5, "value_range": (0.0, 2.0)}], ids=repr)
    @pytest.mark.parametrize("values", NON_FINITE, ids=repr)
    def test_histogram_and_pdf_refuse(self, values, binning):
        with pytest.raises(AnalysisError, match="non-finite"):
            histogram(values, **binning)
        with pytest.raises(AnalysisError, match="non-finite"):
            pdf(values, **binning)

    @pytest.mark.parametrize("values", WITH_NAN, ids=repr)
    def test_cdf_refuses_nan(self, values):
        with pytest.raises(AnalysisError, match="NaN"):
            cdf(values)


class TestInterarrivals:
    def test_gaps(self):
        assert interarrival_times([0.0, 0.1, 0.3]) == pytest.approx([0.1,
                                                                     0.2])

    def test_too_few_rejected(self):
        with pytest.raises(AnalysisError):
            interarrival_times([1.0])

    def test_unordered_rejected(self):
        with pytest.raises(AnalysisError):
            interarrival_times([1.0, 0.5])

    def test_first_of_group_removes_fragment_noise(self):
        records = []
        for index in range(4):
            records += make_fragment_train(start_number=3 * index + 1,
                                           start_time=index * 0.1,
                                           identification=index + 1)
        trace = Trace(records)
        gaps = first_of_group_interarrivals(trace)
        assert gaps == pytest.approx([0.1, 0.1, 0.1])

    def test_normalized_gaps_mean_one(self):
        gaps = [0.05, 0.1, 0.15]
        normalized = normalized_interarrivals(gaps)
        assert sum(normalized) / len(normalized) == pytest.approx(1.0)


class TestNormalize:
    def test_normalize_by_mean(self):
        assert normalize_by_mean([2.0, 4.0]) == [pytest.approx(2 / 3),
                                                 pytest.approx(4 / 3)]

    def test_zero_mean_rejected(self):
        with pytest.raises(AnalysisError):
            normalize_by_mean([1.0, -1.0])

    def test_cv_zero_for_constant(self):
        assert coefficient_of_variation([5.0] * 10) == 0.0

    def test_cv_orders_cbr_vs_vbr(self):
        cbr = [100.0] * 50
        vbr = [60.0, 180.0] * 25
        assert (coefficient_of_variation(vbr)
                > coefficient_of_variation(cbr) + 0.3)

    @given(st.lists(st.one_of(
        st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 1514.0]),
        st.floats(min_value=-1e6, max_value=1e6)), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_summary_cv_is_coefficient_of_variation_bit_for_bit(self,
                                                                values):
        # Small signed values make zero means (and one-element samples
        # of a negative value) common, not just possible.
        try:
            expected = coefficient_of_variation(values)
        except AnalysisError as error:
            with pytest.raises(AnalysisError, match=f"^{error}$"):
                summary_cv(summarize(values))
        else:
            assert summary_cv(summarize(values)).hex() == expected.hex()

    def test_summary_cv_of_one_value(self):
        assert summary_cv(summarize([-3.0])).hex() == (0.0).hex()
        with pytest.raises(AnalysisError, match="zero mean"):
            summary_cv(summarize([0.0]))

    @given(st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=1,
                    max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_normalized_sample_has_unit_mean(self, values):
        normalized = normalize_by_mean(values)
        assert sum(normalized) / len(normalized) == pytest.approx(1.0,
                                                                  rel=1e-6)


class TestBandwidthSeries:
    def make_trace(self):
        records = [make_record(number=i, time=i * 0.1, ip_bytes=986,
                               identification=i)
                   for i in range(40)]
        return Trace(records)

    def test_constant_traffic_flat_series(self):
        series = bandwidth_series(self.make_trace(), interval=1.0)
        rates = [rate for _, rate in series[:-1]]
        assert max(rates) - min(rates) < 1e-6
        # 10 packets of 1000 wire bytes per second = 80 Kbps.
        assert rates[0] == pytest.approx(80.0)

    def test_ip_bytes_option(self):
        series = bandwidth_series(self.make_trace(), interval=1.0,
                                  wire=False)
        assert series[0][1] == pytest.approx(10 * 986 * 8 / 1000)

    def test_average(self):
        series = [(0.0, 10.0), (1.0, 20.0)]
        assert average_kbps(series) == 15.0

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            bandwidth_series(Trace(), interval=1.0)
        with pytest.raises(AnalysisError):
            bandwidth_series(self.make_trace(), interval=0)
        with pytest.raises(AnalysisError):
            rate_series([], [], interval=1.0)
        with pytest.raises(AnalysisError):
            average_kbps([])

    def test_schedule_fed_per_datagram_matches_its_trace(self):
        # Each datagram's packets share its send time, so bucketing the
        # datagram's summed wire bytes gives the trace's series.
        flow = generate_flow(PlayerFamily.WMP, 307.2, 20.0, seed=11)
        times = [time for time, _ in flow.payloads]
        nbytes = [sum(units.wire_frame_bytes(units.IPV4_HEADER_BYTES + size)
                      for size in units.fragment_payloads(
                          payload + units.UDP_HEADER_BYTES))
                  for _, payload in flow.payloads]
        assert rate_series(times, nbytes) == bandwidth_series(
            flow.to_trace())


class TestBuffering:
    def burst_series(self, ratio=3.0, burst_len=10, total=60, steady=50.0):
        series = []
        for index in range(total):
            rate = steady * ratio if index < burst_len else steady
            series.append((float(index), rate))
        return series

    def test_detects_ratio_and_duration(self):
        analysis = detect_buffering_phase(self.burst_series(ratio=3.0,
                                                            burst_len=10))
        assert analysis.ratio == pytest.approx(3.0, rel=0.05)
        assert analysis.buffering_duration == pytest.approx(10.0)
        assert analysis.has_burst

    def test_flat_series_ratio_one(self):
        analysis = detect_buffering_phase(self.burst_series(ratio=1.0,
                                                            burst_len=0))
        assert analysis.ratio == pytest.approx(1.0)
        assert not analysis.has_burst

    def test_measured_ratio_floors_at_one(self):
        assert measured_ratio(self.burst_series(ratio=1.0)) >= 1.0

    def test_short_series_rejected(self):
        with pytest.raises(AnalysisError):
            detect_buffering_phase([(0.0, 1.0)])

    def test_ratio_vs_playout_matches_detector_on_long_series(self):
        series = self.burst_series(ratio=3.0, burst_len=10, steady=50.0)
        assert buffering_ratio_vs_playout(series, 50.0) == pytest.approx(
            3.0, rel=0.05)

    def test_ratio_vs_playout_survives_all_burst_series(self):
        # A short clip consumed entirely within the burst: no steady
        # tail exists, but the playout-relative ratio is still right.
        series = [(float(i), 150.0) for i in range(12)]
        assert buffering_ratio_vs_playout(series, 50.0) == pytest.approx(
            3.0, rel=0.05)

    def test_ratio_vs_playout_flat_series_is_one(self):
        series = [(float(i), 50.0) for i in range(12)]
        assert buffering_ratio_vs_playout(series, 50.0) == 1.0

    def test_ratio_vs_playout_validates_inputs(self):
        with pytest.raises(AnalysisError):
            buffering_ratio_vs_playout([], 50.0)
        with pytest.raises(AnalysisError):
            buffering_ratio_vs_playout([(0.0, 1.0)], 0.0)

    def test_silent_tail_falls_back(self):
        # Stream ended early: tail is all zeros.
        series = ([(float(i), 150.0) for i in range(5)]
                  + [(float(5 + i), 50.0) for i in range(5)]
                  + [(float(10 + i), 0.0) for i in range(30)])
        analysis = detect_buffering_phase(series)
        assert analysis.ratio > 1.5


class TestFragmentationAnalysis:
    def test_sweep_point_from_trace(self):
        records = []
        for index in range(10):
            records += make_fragment_train(start_number=3 * index + 1,
                                           start_time=index * 0.1,
                                           identification=index + 1)
        point = fragmentation_sweep_point(Trace(records), 307.2)
        assert point.fragment_percent == pytest.approx(66.7, abs=0.1)
        assert point.typical_group_size == 3
        assert point.fragments_per_group == 2

    def test_expected_percent_formula(self):
        # 3840-byte ADU -> 3 packets -> 66.7%.
        assert expected_fragment_percent(3840) == pytest.approx(66.7,
                                                                abs=0.1)
        # Below the MTU -> 0%.
        assert expected_fragment_percent(900) == 0.0

    def test_empty_trace_rejected(self):
        with pytest.raises(AnalysisError):
            fragmentation_sweep_point(Trace(), 100.0)


class TestFramerateSummary:
    def test_band_grouping_and_order(self):
        points = [
            ClipPoint(RateBand.HIGH, 300.0, 25.0),
            ClipPoint(RateBand.LOW, 40.0, 13.0),
            ClipPoint(RateBand.LOW, 50.0, 15.0),
            ClipPoint(RateBand.VERY_HIGH, 700.0, 30.0),
        ]
        summaries = summarize_by_band(points)
        assert [s.band for s in summaries] == [RateBand.LOW, RateBand.HIGH,
                                               RateBand.VERY_HIGH]
        low = summaries[0]
        assert low.mean_fps == pytest.approx(14.0)
        assert low.count == 2
        assert low.stderr_fps > 0

    def test_single_member_band_has_zero_stderr(self):
        summaries = summarize_by_band([ClipPoint(RateBand.HIGH, 300.0,
                                                 25.0)])
        assert summaries[0].stderr_fps == 0.0

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            summarize_by_band([])


class TestTrends:
    def test_recovers_quadratic(self):
        xs = [float(x) for x in range(10)]
        ys = [2 * x * x + 3 * x + 1 for x in xs]
        trend = fit_polynomial_trend(xs, ys, degree=2)
        assert trend(5.0) == pytest.approx(2 * 25 + 15 + 1, rel=1e-6)
        assert trend.degree == 2

    def test_identity_offset_signs(self):
        xs = [50.0, 150.0, 300.0]
        above = fit_polynomial_trend(xs, [x * 1.2 for x in xs])
        on = fit_polynomial_trend(xs, list(xs))
        assert above.mean_offset_from_identity(xs) > 0
        assert abs(on.mean_offset_from_identity(xs)) < 1e-6

    def test_degree_reduced_for_few_points(self):
        trend = fit_polynomial_trend([1.0, 2.0], [1.0, 2.0], degree=2)
        assert trend.degree <= 1

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            fit_polynomial_trend([], [])
        with pytest.raises(AnalysisError):
            fit_polynomial_trend([1.0], [1.0, 2.0])

    def test_sweep_imports_leave_numpy_unloaded(self):
        # Only Figure 3's fit needs numpy, and a clean sequential sweep
        # arms no opt-in subsystem, so importing what the end-to-end
        # benchmark imports and running a one-set sweep loads none of
        # them.  A fresh interpreter, since this one has loaded them.
        loaded = _modules_after_sweep("clean")
        assert not [name for name in loaded if name in UNARMED
                    or name == "repro.cc" or name.startswith("repro.cc.")]

    def test_sweep_leaves_the_fast_path_unloaded(self):
        # The harness imports FlowLevelConfig itself, so this sweep
        # imports none of its modules first.
        loaded = _modules_after_sweep("clean", imports=())
        assert "repro.netsim.flowlevel" not in loaded

    def test_armed_sweep_loads_its_subsystems(self):
        # The positive case: the same check sees the modules a sweep
        # arming telemetry, a fault scenario, repair and a pool loads.
        loaded = _modules_after_sweep("armed")
        assert set(ARMED) <= set(loaded)


#: Modules a clean sequential sweep never runs: numpy (Figure 3's fit),
#: the worker pool, and the opt-in subsystems (plus every ``repro.cc``
#: module).
UNARMED = frozenset((
    "numpy", "multiprocessing", "concurrent.futures",
    "repro.faults.controller", "repro.faults.report",
    "repro.validate.checker", "repro.validate.golden",
    *(f"repro.telemetry.{name}" for name in (
        "core", "registry", "sinks", "exporters", "profiler", "streaming",
        "critical_path", "trace_export")),
    "repro.tools.packet_pair", "repro.tools.playlist",
    "repro.capture.pcap", "repro.capture.filters", "repro.capture.hierarchy",
    "repro.repair.sender", "repro.servers.scaling"))
#: Of those, what the armed sweeps load.
ARMED = ("multiprocessing", "concurrent.futures", "repro.faults.controller",
         "repro.servers.scaling", "repro.repair.sender",
         "repro.telemetry.core", "repro.telemetry.registry",
         "repro.telemetry.sinks", "repro.telemetry.profiler")
#: What ``benchmarks/e2e/measure.py`` imports before its set-up sweep.
HARNESS_MODULES = ("experiments.parallel", "experiments.runner",
                   "experiments.datasets", "experiments.figures",
                   "faults.scenario", "media.library", "netsim.flowlevel",
                   "repair.base", "validate.differential")
#: Prints ``sys.modules`` from an exit hook registered first, so it runs
#: last: after ``shutdown_pool``, which must import nothing either.
_SWEEP_CHILD = """
import atexit, importlib, sys
atexit.register(lambda: print("\\n".join(sorted(sys.modules))))
sys.path.insert(0, sys.argv[1])
for name in sys.argv[3:]:
    importlib.import_module("repro." + name)
from repro.experiments import runner
from repro.experiments.datasets import build_table1_library
from repro.experiments.figures import ALL_FIGURES
from repro.media.library import ClipLibrary

library = ClipLibrary()
library.add_set(next(iter(build_table1_library(duration_scale=0.02))))
if sys.argv[2] == "armed":
    from repro.faults.scenario import build_scenario
    from repro.repair.base import RepairConfig
    from repro.telemetry import Telemetry

    runner.run_study(library, seed=7, telemetry=Telemetry(),
                     scenario=build_scenario("burst-loss", 7),
                     repair=RepairConfig())
    runner.usable_cpus = lambda: 2  # fork the pool on any host
    runner.run_study(library, seed=7, jobs=2, min_parallel_runs=0)
else:
    runner.run_study(library, seed=7)
"""


def _modules_after_sweep(mode: str, imports=HARNESS_MODULES):
    """``sys.modules``, at exit, of a fresh interpreter that imported
    ``imports`` (the benchmark's modules by default) and ran one-set
    sweeps (``"clean"`` or ``"armed"``)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", _SWEEP_CHILD, src, mode, *imports],
        capture_output=True, text=True, timeout=120, check=True)
    return child.stdout.split()


class TestReport:
    def test_table_alignment(self):
        text = format_table(["set", "rate"], [[1, 284.0], [2, 36.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "set" in lines[0]
        assert "284.00" in lines[2]

    def test_table_validates_row_width(self):
        with pytest.raises(AnalysisError):
            format_table(["a"], [[1, 2]])

    def test_ascii_plot_contains_points(self):
        text = ascii_plot([(0.0, 0.0), (1.0, 1.0)], width=10, height=5,
                          title="demo")
        assert "demo" in text
        assert text.count("*") >= 2

    def test_render_cdf_labels(self):
        points = cdf([1.0, 2.0, 3.0])
        text = render_cdf(points, title="CDF of RTT", x_label="rtt")
        assert "CDF of RTT" in text
        assert "cumulative density" in text

    def test_empty_plot_rejected(self):
        with pytest.raises(AnalysisError):
            ascii_plot([])
