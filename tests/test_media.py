"""Media package tests: clips, codec model, frame schedules, library."""

import math
import random

import pytest

from repro.errors import MediaError
from repro.media.clip import Clip, ClipEncoding, PlayerFamily
from repro.media.codec import (
    MAX_FRAME_RATE,
    SyntheticCodec,
    nominal_frame_rate,
)
from repro.media.frames import FrameSchedule, VideoFrame
from repro.media.library import ClipLibrary, ClipPair, ClipSet, RateBand


def make_clip(family=PlayerFamily.WMP, kbps=300.0, advertised=300.0,
              duration=60.0, title="clip", genre="Sports"):
    return Clip(title=title, genre=genre, duration=duration,
                encoding=ClipEncoding(family=family, encoded_kbps=kbps,
                                      advertised_kbps=advertised))


class TestClip:
    def test_basic_properties(self):
        clip = make_clip(kbps=284.0, duration=120.0)
        assert clip.encoded_bps == 284_000
        assert clip.total_media_bytes == pytest.approx(284_000 * 120 / 8)

    def test_label_matches_paper_style(self):
        real = make_clip(family=PlayerFamily.REAL, kbps=284.0)
        assert real.label() == "Real Player (284K)"
        wmp = make_clip(family=PlayerFamily.WMP, kbps=323.1)
        assert wmp.label() == "Windows Media Player (323K)"

    def test_invalid_parameters_rejected(self):
        with pytest.raises(MediaError):
            make_clip(kbps=0)
        with pytest.raises(MediaError):
            make_clip(advertised=-5)
        with pytest.raises(MediaError):
            make_clip(duration=0)

    @pytest.mark.parametrize("field", ["kbps", "advertised", "duration"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
    def test_non_finite_parameters_rejected(self, field, value):
        # NaN and infinity pass a plain `<= 0` test.
        with pytest.raises(MediaError, match="positive and finite"):
            make_clip(**{field: value})

    @pytest.mark.parametrize("field", ["kbps", "advertised"])
    def test_rate_infinite_in_bits_per_second_rejected(self, field):
        # 1e308 Kbps is a finite float; the same rate in bit/s is not.
        with pytest.raises(MediaError, match="got 1e[+]308 Kbps"):
            make_clip(**{field: 1e308})


class TestFrameRateModel:
    def test_low_rate_wmp_matches_paper(self):
        # Paper Figure 13: WMP low clip plays at 13 fps.
        fps = nominal_frame_rate(PlayerFamily.WMP, 50.0)
        assert fps == pytest.approx(13.0, abs=1.5)

    def test_low_rate_real_beats_wmp(self):
        # Figure 14: for low encodings Real has a higher frame rate.
        for kbps in (22.0, 26.0, 36.0, 49.0):
            real = nominal_frame_rate(PlayerFamily.REAL, kbps)
            wmp = nominal_frame_rate(PlayerFamily.WMP, kbps)
            assert real > wmp

    def test_high_rate_both_full_motion(self):
        # Figure 13: both high clips reach 25 fps.
        for family in PlayerFamily:
            assert nominal_frame_rate(family, 284.0) >= 25.0

    def test_high_rate_rates_are_similar(self):
        real = nominal_frame_rate(PlayerFamily.REAL, 300.0)
        wmp = nominal_frame_rate(PlayerFamily.WMP, 300.0)
        assert abs(real - wmp) < 5.0

    def test_capped_at_maximum(self):
        assert nominal_frame_rate(PlayerFamily.WMP, 5000.0) == MAX_FRAME_RATE

    def test_invalid_rate_rejected(self):
        with pytest.raises(MediaError):
            nominal_frame_rate(PlayerFamily.REAL, 0)


class TestSyntheticCodec:
    def test_schedule_covers_duration(self):
        clip = make_clip(duration=60.0)
        schedule = SyntheticCodec().encode(clip)
        assert schedule.duration == pytest.approx(60.0, rel=0.05)

    def test_byte_budget_respected(self):
        clip = make_clip(kbps=300.0, duration=60.0)
        schedule = SyntheticCodec().encode(clip)
        assert schedule.total_bytes == pytest.approx(clip.total_media_bytes,
                                                     rel=0.08)

    def test_keyframes_periodic_and_larger(self):
        clip = make_clip(family=PlayerFamily.REAL, kbps=200.0)
        schedule = SyntheticCodec().encode(clip)
        keyframes = [f for f in schedule if f.keyframe]
        deltas = [f for f in schedule if not f.keyframe]
        assert keyframes[0].number == 0
        assert keyframes[1].number == 8  # Real GOP length
        mean_key = sum(f.size_bytes for f in keyframes) / len(keyframes)
        mean_delta = sum(f.size_bytes for f in deltas) / len(deltas)
        assert mean_key > 2 * mean_delta

    def test_real_sizes_vary_more_than_wmp(self):
        def spread(family):
            clip = make_clip(family=family, kbps=200.0)
            schedule = SyntheticCodec(random.Random(5)).encode(clip)
            deltas = [f.size_bytes for f in schedule if not f.keyframe]
            mean = sum(deltas) / len(deltas)
            return (max(deltas) - min(deltas)) / mean
        assert spread(PlayerFamily.REAL) > spread(PlayerFamily.WMP)

    @pytest.mark.parametrize("kbps, duration, message", [
        (300.0, 1e308, "a 1e+308 s clip at 300 Kbps is too long to encode"),
        (1e305, 30.0, "a 30 s clip at 1e+305 Kbps is too long to encode"),
    ], ids=["frame-count", "byte-budget"])
    def test_overflowing_schedule_rejected(self, kbps, duration, message):
        # A finite clip whose frame count or byte budget overflows to
        # infinity; the values are named in short form, not 309 digits.
        clip = make_clip(kbps=kbps, duration=duration)
        with pytest.raises(MediaError) as excinfo:
            SyntheticCodec().encode(clip)
        assert str(excinfo.value) == message

    def test_deterministic_for_same_rng_seed(self):
        clip = make_clip()
        first = SyntheticCodec(random.Random(9)).encode(clip)
        second = SyntheticCodec(random.Random(9)).encode(clip)
        assert [f.size_bytes for f in first] == [f.size_bytes for f in second]


class TestFrameSchedule:
    def test_between_selects_by_media_time(self):
        frames = [VideoFrame(number=i, media_time=i * 0.1, size_bytes=100)
                  for i in range(10)]
        schedule = FrameSchedule(frames, nominal_fps=10.0)
        window = schedule.between(0.2, 0.5)
        assert [f.number for f in window] == [2, 3, 4]

    def test_achieved_fps_buckets(self):
        frames = [VideoFrame(number=i, media_time=i / 10, size_bytes=10)
                  for i in range(25)]
        schedule = FrameSchedule(frames, nominal_fps=10.0)
        # 10 frames in [0,1), 10 in [1,2), 5 in [2,2.5).
        times = [i / 10 for i in range(25)]
        assert schedule.achieved_fps(times) == [10.0, 10.0, 5.0]

    def test_achieved_fps_empty(self):
        schedule = FrameSchedule([], nominal_fps=10.0)
        assert schedule.achieved_fps([]) == []

    def test_invalid_parameters_rejected(self):
        with pytest.raises(MediaError):
            FrameSchedule([], nominal_fps=0)
        with pytest.raises(MediaError):
            VideoFrame(number=0, media_time=-1, size_bytes=10)
        with pytest.raises(MediaError):
            VideoFrame(number=0, media_time=0, size_bytes=-1)


class TestLibrary:
    def make_pair(self, band=RateBand.HIGH, duration=60.0):
        real = make_clip(family=PlayerFamily.REAL, kbps=284.0,
                         duration=duration, title="clip-r")
        wmp = make_clip(family=PlayerFamily.WMP, kbps=323.1,
                        duration=duration, title="clip-m")
        return ClipPair(band=band, real=real, wmp=wmp)

    def test_pair_validates_families(self):
        wmp = make_clip(family=PlayerFamily.WMP)
        with pytest.raises(MediaError):
            ClipPair(band=RateBand.HIGH, real=wmp, wmp=wmp)

    def test_pair_validates_matching_duration(self):
        real = make_clip(family=PlayerFamily.REAL, duration=60.0)
        wmp = make_clip(family=PlayerFamily.WMP, duration=61.0)
        with pytest.raises(MediaError):
            ClipPair(band=RateBand.HIGH, real=real, wmp=wmp)

    def test_pair_lookup_by_family(self):
        pair = self.make_pair()
        assert pair.by_family(PlayerFamily.REAL) is pair.real
        assert pair.by_family(PlayerFamily.WMP) is pair.wmp

    def test_set_band_management(self):
        clip_set = ClipSet(number=1, genre="Sports", duration=60.0)
        clip_set.add_pair(self.make_pair(RateBand.HIGH))
        clip_set.add_pair(self.make_pair(RateBand.LOW))
        assert clip_set.bands == [RateBand.LOW, RateBand.HIGH]
        with pytest.raises(MediaError):
            clip_set.add_pair(self.make_pair(RateBand.HIGH))
        with pytest.raises(MediaError):
            clip_set.pair(RateBand.VERY_HIGH)

    def test_library_iteration_and_counts(self):
        library = ClipLibrary()
        for number in (2, 1):
            clip_set = ClipSet(number=number, genre="News", duration=60.0)
            clip_set.add_pair(self.make_pair(RateBand.HIGH))
            library.add_set(clip_set)
        assert [s.number for s in library] == [1, 2]
        assert library.clip_count == 4
        assert len(library.all_clips(PlayerFamily.REAL)) == 2
        assert len(library.all_pairs()) == 2
        only = library.only_set(2)
        assert [s.number for s in only] == [2]
        assert only.get_set(2) is library.get_set(2)
        assert len(library) == 2

    def test_library_duplicate_set_rejected(self):
        library = ClipLibrary()
        library.add_set(ClipSet(number=1, genre="News", duration=60.0))
        with pytest.raises(MediaError):
            library.add_set(ClipSet(number=1, genre="News", duration=60.0))

    def test_library_missing_set_raises(self):
        with pytest.raises(MediaError):
            ClipLibrary().get_set(4)
        with pytest.raises(MediaError):
            ClipLibrary().only_set(4)
