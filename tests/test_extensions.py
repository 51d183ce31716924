"""Tests for the extension modules: tracker logs, packet-pair
estimation, and time-series periodicity."""

import math
import random

import pytest

from repro.analysis.timeseries import (
    arrival_counts,
    autocorrelation,
    dominant_period,
    periodicity_score,
)
from repro.capture.trace import Trace
from repro.core.generator import generate_flow
from repro.errors import AnalysisError
from repro.media.clip import PlayerFamily
from repro.players.logging import dumps, loads, read_log, write_log
from repro.players.stats import PacketReceipt, PlayerStats
from repro.servers.control import ClipDescription
from repro.tools.packet_pair import estimate_bottleneck, estimate_from_trace

from .helpers import make_fragment_train


class TestTrackerLog:
    def make_stats(self):
        description = ClipDescription(
            title="news", genre="News", duration=30.0,
            encoded_kbps=250.4, advertised_kbps=300.0, nominal_fps=25.0)
        stats = PlayerStats(description)
        stats.requested_at = 1.0
        for index in range(20):
            stats.record_receipt(PacketReceipt(
                sequence=index, network_time=2.0 + index * 0.1,
                app_time=3.0 + index * 0.1, payload_bytes=900 + index,
                fragment_count=3, first_packet_time=2.0 + index * 0.1))
        stats.eos_at = 5.0
        stats.playout_started_at = 4.0
        stats.packets_lost = 2
        stats.frames_late = 1
        for index in range(10):
            stats.record_frame_play(index / 25.0)
        return stats

    def test_round_trip_preserves_everything(self):
        original = self.make_stats()
        loaded = loads(dumps(original))
        assert loaded.description == original.description
        assert loaded.packets_received == original.packets_received
        assert loaded.bytes_received == original.bytes_received
        assert loaded.packets_lost == original.packets_lost
        assert loaded.frames_late == original.frames_late
        assert loaded.frame_plays == original.frame_plays
        assert loaded.eos_at == original.eos_at
        assert loaded.playout_started_at == original.playout_started_at
        assert (loaded.receipts[7].network_time
                == original.receipts[7].network_time)

    def test_derived_statistics_survive(self):
        loaded = loads(dumps(self.make_stats()))
        assert loaded.average_playback_kbps > 0
        assert loaded.average_fps > 0
        assert loaded.bandwidth_timeline()

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "tracker.log")
        original = self.make_stats()
        assert write_log(original, path) == 20
        loaded = read_log(path)
        assert loaded.packets_received == 20

    def test_empty_log_rejected(self):
        with pytest.raises(AnalysisError):
            loads("")

    def test_bad_schema_rejected(self):
        with pytest.raises(AnalysisError):
            loads('{"schema": 999}\n')

    def test_malformed_header_rejected(self):
        with pytest.raises(AnalysisError):
            loads("not json\n")

    def test_malformed_receipt_rejected(self):
        text = dumps(self.make_stats())
        corrupted = text + "[1, 2]\n"
        with pytest.raises(AnalysisError):
            loads(corrupted)


class TestPacketPairFromTrace:
    def make_trace(self, bottleneck_mbps=10.0):
        # Fragment trains whose intra-train gap is the serialization
        # time of a 1514-byte frame at the bottleneck.
        gap = 1514 * 8 / (bottleneck_mbps * 1e6)
        records = []
        for index in range(20):
            records += make_fragment_train(
                start_number=3 * index + 1, start_time=index * 0.1,
                identification=index + 1, gap=gap)
        return Trace(records)

    def test_recovers_bottleneck_bandwidth(self):
        estimate = estimate_from_trace(self.make_trace(10.0))
        assert estimate.median_mbps == pytest.approx(10.0, rel=0.02)
        assert estimate.samples == 20  # one full-size pair per train

    def test_different_bottlenecks_distinguished(self):
        slow = estimate_from_trace(self.make_trace(5.0))
        fast = estimate_from_trace(self.make_trace(50.0))
        assert fast.median_bps > 5 * slow.median_bps

    def test_unfragmented_trace_rejected(self):
        from .helpers import make_record

        trace = Trace([make_record(number=i, time=i * 0.1,
                                   identification=i)
                       for i in range(1, 10)])
        with pytest.raises(AnalysisError):
            estimate_from_trace(trace)


class TestActivePacketPair:
    def test_probes_measure_the_access_link(self, path):
        # The path's slowest link is the 10 Mbps client access link.
        estimate = estimate_bottleneck(path.server, path.client)
        assert estimate.median_mbps == pytest.approx(10.0, rel=0.05)

    def test_works_between_direct_hosts(self, host_pair):
        estimate = estimate_bottleneck(host_pair.left, host_pair.right)
        assert estimate.median_mbps == pytest.approx(100.0, rel=0.05)


class TestAutocorrelation:
    def test_periodic_series_correlates_at_its_period(self):
        values = [1.0, 0.0, 0.0, 0.0] * 20
        lags = autocorrelation(values, max_lag=8)
        assert lags[3] > 0.9   # lag 4 = the period
        assert lags[0] < 0.0   # adjacent bins anti-correlate

    def test_white_noise_is_uncorrelated(self):
        rng = random.Random(9)
        values = [rng.random() for _ in range(500)]
        lags = autocorrelation(values, max_lag=5)
        assert all(abs(lag) < 0.15 for lag in lags)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            autocorrelation([1.0, 2.0], max_lag=5)
        with pytest.raises(AnalysisError):
            autocorrelation([3.0] * 50, max_lag=2)
        with pytest.raises(AnalysisError):
            autocorrelation([1.0] * 50, max_lag=0)


class TestPeriodicity:
    def test_arrival_counts(self):
        counts = arrival_counts([0.0, 0.05, 0.15, 0.35], bin_width=0.1)
        assert counts == [2, 1, 0, 1]

    def test_cbr_flow_scores_high_at_its_tick(self):
        flow = generate_flow(PlayerFamily.WMP, 307.2, 30.0, seed=1)
        times = flow.to_trace().times()
        score = periodicity_score(times, period=0.100)
        assert score > 0.8

    def test_real_flow_scores_lower(self):
        flow = generate_flow(PlayerFamily.REAL, 284.0, 30.0, seed=1)
        times = flow.to_trace().times()
        wmp_flow = generate_flow(PlayerFamily.WMP, 307.2, 30.0, seed=1)
        wmp_times = wmp_flow.to_trace().times()
        assert (periodicity_score(times, 0.100)
                < periodicity_score(wmp_times, 0.100) - 0.3)

    def test_dominant_period_finds_the_tick(self):
        flow = generate_flow(PlayerFamily.WMP, 307.2, 30.0, seed=1)
        times = flow.to_trace().times()
        period, score = dominant_period(times,
                                        [0.050, 0.100, 0.150, 0.200])
        assert period in (0.100, 0.200)  # harmonics both qualify
        assert score > 0.8

    def test_validation(self):
        with pytest.raises(AnalysisError):
            periodicity_score([], 0.1)
        with pytest.raises(AnalysisError):
            periodicity_score([0.0, 0.1], -1.0)
        with pytest.raises(AnalysisError):
            dominant_period([0.0, 0.1], [])
        with pytest.raises(AnalysisError):
            arrival_counts([0.0], 0.0)
