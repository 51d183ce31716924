"""Figure-generator tests over a reduced-duration study.

Structural checks (series present, findings rendered) run for every
artifact; shape checks are asserted where they are robust at reduced
clip lengths (fragmentation, CBR-ness, classification, RTT/hop CDFs).
Full-length shape numbers are produced by the benchmarks and recorded
in EXPERIMENTS.md.
"""

import pytest

from repro.analysis.distributions import cdf_at
from repro.errors import ExperimentError
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.figures.base import FigureResult
from repro.experiments.runner import PairRunResult, StudyResults, run_study

from .helpers import count_calls


@pytest.fixture(scope="module")
def study():
    return run_study(seed=4242, duration_scale=0.25)


@pytest.fixture(scope="module")
def short_study():
    return run_study(seed=4242, duration_scale=0.02)


class TestAllFigures:
    @pytest.mark.parametrize("figure_id", sorted(ALL_FIGURES))
    def test_generates_and_renders(self, study, figure_id):
        result = ALL_FIGURES[figure_id](study)
        assert isinstance(result, FigureResult)
        assert result.figure_id == figure_id
        assert result.findings, f"{figure_id} produced no findings"
        text = result.render()
        assert result.title in text
        assert "findings:" in text

    @pytest.mark.parametrize("figure_id", sorted(ALL_FIGURES))
    def test_generates_and_renders_on_short_clips(self, short_study,
                                                  figure_id):
        # Clips at 2% of their length leave fig10 too few bandwidth
        # intervals and fig12 too few receipts: the figure must say so
        # in a finding rather than crash.  No shape test runs here.
        self.test_generates_and_renders(short_study, figure_id)

    @pytest.mark.parametrize("figure_id", sorted(ALL_FIGURES))
    def test_empty_study_rejected(self, figure_id):
        with pytest.raises((ExperimentError, Exception)):
            ALL_FIGURES[figure_id](StudyResults())


class TestTable1:
    def test_thirteen_rows_and_measured_rates(self, study):
        result = ALL_FIGURES["table1"](study)
        assert len(result.rows) == 13
        # Measured (DESCRIBE) rates equal the Table 1 definitions.
        assert any("284.0/323.1" in str(row[2]) for row in result.rows)


class TestFig01:
    def test_median_and_max_shape(self, study):
        result = ALL_FIGURES["fig01"](study)
        points = result.series_named("rtt_cdf_ms")
        assert cdf_at(points, 40.0 + 12.0) >= 0.45
        assert points[-1][0] <= 160.0


class TestFig02:
    def test_hops_concentrated_15_to_20(self, study):
        result = ALL_FIGURES["fig02"](study)
        points = result.series_named("hops_cdf")
        mass_15_to_20 = cdf_at(points, 20.0) - cdf_at(points, 14.9)
        assert mass_15_to_20 >= 0.4
        assert points[0][0] >= 10
        assert points[-1][0] <= 30


class TestFig03:
    def test_real_above_identity_wmp_on_it(self, study):
        result = ALL_FIGURES["fig03"](study)
        rows = {row[0]: row[1] for row in result.rows}
        assert rows["RealPlayer"] > 10.0
        assert abs(rows["MediaPlayer"]) < 15.0


class TestFig04:
    def test_wmp_stepped_real_gradual(self, study):
        result = ALL_FIGURES["fig04"](study)
        assert result.series_named("real_arrivals")
        assert result.series_named("wmp_arrivals")
        assert any("constant packet count: True" in finding
                   for finding in result.findings)


class TestFig05:
    def test_fragmentation_shape(self, study):
        result = ALL_FIGURES["fig05"](study)
        wmp = result.series_named("wmp_frag_percent")
        real = result.series_named("real_frag_percent")
        assert all(pct == 0.0 for _, pct in real)
        low = [pct for kbps, pct in wmp if kbps < 118]
        high = [pct for kbps, pct in wmp if kbps > 200]
        assert all(pct == 0.0 for pct in low)
        assert all(pct > 50.0 for pct in high)
        # Monotone nondecreasing with rate (within the small wobble the
        # clip's truncated final ADU introduces).
        percents = [pct for _, pct in wmp]
        assert all(later >= earlier - 0.5
                   for earlier, later in zip(percents, percents[1:]))
        top_kbps, top_pct = max(wmp)
        assert top_pct > 75.0  # ~86% at 731 Kbps; paper: up to ~80%


class TestFig06:
    def test_wmp_concentrated_real_spread(self, study):
        result = ALL_FIGURES["fig06"](study)
        wmp_pdf = result.series_named("wmp_size_pdf")
        real_pdf = result.series_named("real_size_pdf")
        assert max(density for _, density in wmp_pdf) > 0.5
        assert max(density for _, density in real_pdf) < 0.5


class TestFig07:
    def test_normalized_size_shapes(self, study):
        result = ALL_FIGURES["fig07"](study)
        wmp = result.series_named("wmp_norm_size_pdf")
        peak = max(wmp, key=lambda p: p[1])
        assert 0.8 <= peak[0] <= 1.2
        real = result.series_named("real_norm_size_pdf")
        spread_mass = sum(density for center, density in real
                          if 0.6 <= center <= 1.8)
        assert spread_mass > 0.9
        real_peak = max(density for _, density in real)
        assert real_peak < peak[1]


class TestFig09:
    def test_wmp_cdf_steeper_at_one(self, study):
        result = ALL_FIGURES["fig09"](study)
        wmp = result.series_named("wmp_norm_gap_cdf")
        real = result.series_named("real_norm_gap_cdf")
        wmp_mass = cdf_at(wmp, 1.1) - cdf_at(wmp, 0.9)
        real_mass = cdf_at(real, 1.1) - cdf_at(real, 0.9)
        assert wmp_mass > 0.8
        assert real_mass < 0.5


class TestFig12:
    def test_interleaving_findings(self, study):
        result = ALL_FIGURES["fig12"](study)
        assert result.series_named("network_layer")
        assert result.series_named("application_layer")
        network = dict(result.series_named("network_layer"))
        application = dict(result.series_named("application_layer"))
        # Application releases never precede network receipt.
        assert min(application) >= min(network)


class TestFig14And15:
    def test_low_band_gap_positive(self, study):
        for figure_id in ("fig14", "fig15"):
            result = ALL_FIGURES[figure_id](study)
            low_rows = [row for row in result.rows if row[1] == "low"]
            by_player = {row[0]: row[3] for row in low_rows}
            assert by_player["real"] > by_player["wmp"]


class TestSec4:
    def test_round_trip_classification(self, study):
        result = ALL_FIGURES["sec4"](study)
        assert any("26/26" in finding for finding in result.findings)


class TestEachFlowMeasuredOnce:
    """A render selects and groups each flow once per figure."""

    @pytest.fixture
    def selections(self, monkeypatch):
        calls = []
        original = PairRunResult._media_flow

        def counted(run, server):
            calls.append((run.label, server))
            return original(run, server)

        monkeypatch.setattr(PairRunResult, "_media_flow", counted)
        return calls

    def test_sec4_selects_and_groups_each_flow_once(self, short_study,
                                                    selections,
                                                    monkeypatch):
        groupings = count_calls(monkeypatch, "repro.capture.reassembly",
                                "group_datagrams")
        ALL_FIGURES["sec4"](short_study)
        runs = len(short_study)
        # One selection per (run, product) and one grouping of each
        # measured flow; its synthetic twin is fitted from its
        # schedule, which needs no grouping.
        assert len(selections) == 2 * runs
        assert len(set(selections)) == 2 * runs
        assert len(groupings) == 2 * runs

    def test_fig04_selects_each_flow_once(self, short_study, selections):
        ALL_FIGURES["fig04"](short_study)
        assert len(selections) == 2
        assert len(set(selections)) == 2
