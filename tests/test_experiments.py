"""Experiment-layer tests: datasets, conditions, runner, study results.

These run a reduced-duration study once (module fixture) and verify the
methodology's structural guarantees; the full-length shape checks live
in the benchmarks and the integration tests.
"""

import random

import pytest

from repro.errors import ExperimentError
from repro.experiments.conditions import sample_conditions
from repro.experiments.datasets import (
    ADVERTISED_KBPS,
    build_table1_library,
    table1_rows,
)
from repro.experiments.runner import run_pair_experiment, run_study
from repro.media.clip import PlayerFamily
from repro.media.library import RateBand


@pytest.fixture(scope="module")
def study():
    return run_study(seed=1337, duration_scale=0.25)


class TestDatasets:
    def test_library_matches_paper_counts(self):
        library = build_table1_library()
        assert len(library) == 6
        assert library.clip_count == 26
        assert len(library.all_pairs()) == 13

    def test_exact_paper_rates_preserved(self):
        library = build_table1_library()
        pair1 = library.get_set(1).pair(RateBand.HIGH)
        assert pair1.real.encoded_kbps == 284.0
        assert pair1.wmp.encoded_kbps == 323.1
        pair6 = library.get_set(6).pair(RateBand.VERY_HIGH)
        assert pair6.real.encoded_kbps == 636.9
        assert pair6.wmp.encoded_kbps == 731.3

    def test_real_always_encodes_below_wmp(self):
        # Section III.B: "the RealPlayer clips always have a lower
        # encoding rate than the corresponding MediaPlayer clip".
        library = build_table1_library()
        for _, pair in library.all_pairs():
            assert pair.real.encoded_kbps < pair.wmp.encoded_kbps

    def test_only_set6_has_very_high(self):
        library = build_table1_library()
        for clip_set in library:
            has_very_high = RateBand.VERY_HIGH in clip_set.pairs
            assert has_very_high == (clip_set.number == 6)

    def test_advertised_rates_by_band(self):
        library = build_table1_library()
        for _, pair in library.all_pairs():
            expected = ADVERTISED_KBPS[pair.band]
            assert pair.real.encoding.advertised_kbps == expected
            assert pair.wmp.encoding.advertised_kbps == expected

    def test_duration_scale(self):
        library = build_table1_library(duration_scale=0.5)
        assert library.get_set(2).duration == pytest.approx(19.5)
        with pytest.raises(ValueError):
            build_table1_library(duration_scale=0)

    def test_clip_lengths_in_selection_window(self):
        # Section II.C: clips between 30 s and 5 min.
        library = build_table1_library()
        for clip in library.all_clips():
            assert 30.0 <= clip.duration <= 300.0

    def test_table1_rows_shape(self):
        rows = table1_rows()
        assert len(rows) == 13
        assert rows[0][0] == 1
        assert any("636.9/731.3" in str(row[2]) for row in rows)


class TestConditions:
    def test_sampling_within_figure_ranges(self):
        rng = random.Random(5)
        for _ in range(200):
            conditions = sample_conditions(rng)
            assert 0.010 <= conditions.rtt <= 0.160
            assert 12 <= conditions.hop_count <= 25
            assert conditions.loss_probability == 0.0

    def test_loss_override(self):
        rng = random.Random(5)
        conditions = sample_conditions(rng, loss_probability=0.02)
        assert conditions.loss_probability == 0.02

    def test_describe(self):
        rng = random.Random(5)
        text = sample_conditions(rng).describe()
        assert "rtt=" in text and "hops=" in text


class TestPairRun:
    def test_single_pair_run_is_deterministic(self):
        library = build_table1_library(duration_scale=0.2)
        clip_set = library.get_set(2)
        pair = clip_set.pair(RateBand.LOW)
        first = run_pair_experiment(clip_set, pair, seed=99)
        second = run_pair_experiment(clip_set, pair, seed=99)
        assert len(first.trace) == len(second.trace)
        assert (first.real_stats.bytes_received
                == second.real_stats.bytes_received)
        assert first.conditions == second.conditions

    def test_flow_separation_is_clean(self):
        library = build_table1_library(duration_scale=0.2)
        clip_set = library.get_set(2)
        pair = clip_set.pair(RateBand.HIGH)
        result = run_pair_experiment(clip_set, pair, seed=7)
        real_flow = result.real_flow()
        wmp_flow = result.wmp_flow()
        assert len(real_flow) > 0 and len(wmp_flow) > 0
        assert {r.src for r in real_flow} == {result.real_server}
        assert {r.src for r in wmp_flow} == {result.wmp_server}

    def test_total_media_loss_raises_experiment_error(self):
        # 100% media loss (TCP control spared): the players never see
        # a datagram, the streams never finish, and the runner must
        # refuse to fabricate a result.
        from repro.experiments.conditions import NetworkConditions

        library = build_table1_library(duration_scale=0.2)
        clip_set = library.get_set(2)
        pair = clip_set.pair(RateBand.LOW)
        conditions = NetworkConditions(rtt=0.040, hop_count=10,
                                       loss_probability=1.0)
        with pytest.raises(ExperimentError):
            run_pair_experiment(clip_set, pair, seed=5,
                                conditions=conditions)

    def test_pings_bracket_the_run(self):
        library = build_table1_library(duration_scale=0.2)
        clip_set = library.get_set(3)
        pair = clip_set.pair(RateBand.LOW)
        result = run_pair_experiment(clip_set, pair, seed=7)
        assert result.ping_before.received == result.ping_before.sent
        assert result.ping_after.received == result.ping_after.sent
        assert result.tracert.reached
        assert result.tracert.hop_count == result.conditions.hop_count


class TestStudy:
    def test_covers_all_thirteen_pairs(self, study):
        assert len(study) == 13
        labels = {run.label for run in study}
        assert "set6-v" in labels
        assert len(labels) == 13

    def test_every_stream_finished(self, study):
        for run in study:
            assert run.real_stats.eos_at is not None
            assert run.wmp_stats.eos_at is not None
            assert run.real_stats.packets_received > 0
            assert run.wmp_stats.packets_received > 0

    def test_rtt_and_hop_samples_populated(self, study):
        assert len(study.rtt_samples()) == 13 * 8  # 4 pings x2 per run
        assert len(study.hop_samples()) == 13
        assert study.loss_percent() == 0.0

    def test_by_band_partition(self, study):
        low = study.by_band(RateBand.LOW)
        high = study.by_band(RateBand.HIGH)
        very_high = study.by_band(RateBand.VERY_HIGH)
        assert len(low) == 6
        assert len(high) == 6
        assert len(very_high) == 1

    def test_wmp_fragments_only_at_high_rates(self, study):
        from repro.capture.reassembly import fragmentation_percent

        # The analytic crossover: a 100 ms ADU exceeds the 1472-byte
        # unfragmented payload above 1472*8/0.1 = ~118 Kbps (the paper
        # reports no fragmentation below 100 Kbps; its nearest measured
        # points are ~102 and ~250 Kbps).
        for run in study:
            percent = fragmentation_percent(run.wmp_flow())
            if run.wmp_clip.encoded_kbps < 118:
                assert percent == 0.0
            else:
                assert percent > 30.0

    def test_real_never_fragments(self, study):
        from repro.capture.reassembly import fragmentation_percent

        for run in study:
            assert fragmentation_percent(run.real_flow()) == 0.0

    def test_profiles_classify_products(self, study):
        for run in study:
            assert run.wmp_profile().classify() == "mediaplayer"
            assert run.real_profile().classify() == "realplayer"


class TestStudyCache:
    """The memo cache must key on the library, not just the scalars."""

    @staticmethod
    def one_set_library(set_number, duration_scale=0.04):
        from repro.media.library import ClipLibrary

        full = build_table1_library(duration_scale=duration_scale)
        library = ClipLibrary()
        library.add_set(full.get_set(set_number))
        return library

    def test_fingerprint_is_stable_and_content_sensitive(self):
        a = self.one_set_library(1)
        b = self.one_set_library(1)
        c = self.one_set_library(2)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        # Scale changes clip durations, hence the fingerprint.
        assert (a.fingerprint()
                != self.one_set_library(1, duration_scale=0.05).fingerprint())

    def test_custom_library_does_not_alias_cached_study(self):
        from repro.experiments.cache import clear_cache, get_study
        from repro.experiments.spec import RunSpec

        def spec(set_number):
            return RunSpec(seed=77, duration_scale=0.04,
                           library=self.one_set_library(set_number))

        clear_cache()
        try:
            first = get_study(spec(1))
            second = get_study(spec(2))
            # Same scalars, different libraries: distinct studies.
            assert first is not second
            assert ({run.set_number for run in first}
                    != {run.set_number for run in second})
            # Same library content memoizes.
            again = get_study(spec(1))
            assert again is first
        finally:
            clear_cache()
