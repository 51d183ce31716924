"""Core-package tests: profiles, fitting, Section IV flow models."""

import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.buffering import detect_buffering_phase
from repro.analysis.bandwidth import bandwidth_series
from repro.analysis.interarrival import first_of_group_interarrivals
from repro.capture import serialize
from repro.capture.reassembly import fragmentation_percent
from repro.core.fitting import fit_flow, fit_profile, fit_schedule
from repro.core.generator import FlowReplayer, SyntheticFlow, generate_flow
from repro.core.models import (
    MediaPlayerFlowModel,
    RealPlayerFlowModel,
    flow_model_for,
    sample_hop_count,
    sample_rtt,
)
from repro.core.turbulence import TurbulenceProfile
from repro.errors import AnalysisError, MediaError
from repro.media.clip import PlayerFamily
from repro.servers.realserver import buffering_ratio

from .helpers import count_calls, make_fragment_train


class TestConditionSampling:
    def test_rtt_distribution_shape(self):
        rng = random.Random(42)
        samples = [sample_rtt(rng) for _ in range(4000)]
        samples.sort()
        median = samples[len(samples) // 2]
        assert median == pytest.approx(0.040, abs=0.006)
        assert max(samples) <= 0.160
        assert min(samples) >= 0.010

    def test_hop_count_distribution_shape(self):
        rng = random.Random(42)
        samples = [sample_hop_count(rng) for _ in range(4000)]
        assert all(12 <= hops <= 25 for hops in samples)
        mid = sum(1 for hops in samples if 15 <= hops <= 20)
        assert mid / len(samples) == pytest.approx(0.70, abs=0.05)


def schedule_trace(model, family, duration):
    """The capture trace of one model's datagram schedule."""
    return SyntheticFlow(family, model.encoded_kbps, duration,
                         model.group_payloads(duration)).to_trace()


class TestMediaPlayerFlowModel:
    def test_high_rate_schedule_is_grouped_cbr(self):
        model = MediaPlayerFlowModel(307.2, random.Random(1))
        trace = schedule_trace(model, PlayerFamily.WMP, 10.0)
        groups = {r.identification for r in trace}
        # 100 ms ticks over 10 s -> ~100 groups of 3 packets.
        assert len(groups) == pytest.approx(100, abs=2)
        full_groups = [r for r in trace if r.identification < len(groups)]
        per_group = len(full_groups) / (len(groups) - 1)
        assert per_group == pytest.approx(3.0, abs=0.1)

    def test_low_rate_never_fragments(self):
        model = MediaPlayerFlowModel(49.8, random.Random(1))
        trace = schedule_trace(model, PlayerFamily.WMP, 30.0)
        assert all(not r.is_fragment for r in trace)

    def test_byte_conservation(self):
        model = MediaPlayerFlowModel(307.2, random.Random(1))
        trace = schedule_trace(model, PlayerFamily.WMP, 10.0)
        payload = sum(r.ip_bytes - 20 for r in trace)
        udp_headers = len({r.identification for r in trace}) * 8
        media = payload - udp_headers
        assert media == pytest.approx(307_200 * 10 / 8, rel=0.01)

    def test_invalid_rate_rejected(self):
        with pytest.raises(MediaError):
            MediaPlayerFlowModel(0)


class TestRealPlayerFlowModel:
    def test_never_fragments(self):
        model = RealPlayerFlowModel(636.9, random.Random(1))
        trace = schedule_trace(model, PlayerFamily.REAL, 20.0)
        assert all(not r.is_fragment for r in trace)
        assert all(r.ip_bytes <= 1500 for r in trace)

    def test_burst_front_loads_bytes(self):
        model = RealPlayerFlowModel(36.0, random.Random(1))
        trace = schedule_trace(model, PlayerFamily.REAL, 120.0)
        early = sum(r.wire_bytes for r in trace if r.time < 20.0)
        late = sum(r.wire_bytes for r in trace if 25.0 <= r.time < 45.0)
        assert early / max(late, 1) == pytest.approx(buffering_ratio(36.0),
                                                     rel=0.35)

    def test_flow_ends_before_clip_duration(self):
        model = RealPlayerFlowModel(36.0, random.Random(1))
        payloads = model.group_payloads(120.0)
        assert payloads[-1][0] < 120.0 * 0.8

    def test_sizes_spread(self):
        model = RealPlayerFlowModel(217.6, random.Random(1))
        sizes = schedule_trace(model, PlayerFamily.REAL, 30.0).sizes()
        mean = sum(sizes) / len(sizes)
        assert min(sizes) / mean < 0.8
        assert max(sizes) / mean > 1.25

    def test_factory_selects_model(self):
        assert isinstance(flow_model_for(PlayerFamily.WMP, 100.0),
                          MediaPlayerFlowModel)
        assert isinstance(flow_model_for(PlayerFamily.REAL, 100.0),
                          RealPlayerFlowModel)


class TestSyntheticFlow:
    def test_generate_flow_round_trips_to_trace(self):
        flow = generate_flow(PlayerFamily.WMP, 307.2, 20.0, seed=3)
        trace = flow.to_trace()
        assert len(trace) == flow.packet_count
        assert fragmentation_percent(trace) == pytest.approx(66.7, abs=2.0)

    def test_real_flow_trace_has_no_fragments(self):
        flow = generate_flow(PlayerFamily.REAL, 284.0, 20.0, seed=3)
        assert fragmentation_percent(flow.to_trace()) == 0.0

    def test_streaming_duration_shorter_for_real(self):
        wmp = generate_flow(PlayerFamily.WMP, 300.0, 60.0, seed=3)
        real = generate_flow(PlayerFamily.REAL, 300.0, 60.0, seed=3)
        assert real.streaming_duration < wmp.streaming_duration

    def test_group_payloads_reconstruct_adus(self):
        flow = generate_flow(PlayerFamily.WMP, 307.2, 5.0, seed=3)
        payloads = [payload for _, payload in flow.group_payloads()]
        # 100 ms ticks at 307.2 Kbps -> 3840-byte ADUs.
        assert payloads[0] == 3840

    @pytest.mark.parametrize("kbps, duration", [(1e308, 5.0),
                                                (300.0, 1e308)])
    def test_overflowing_byte_budget_rejected(self, kbps, duration):
        with pytest.raises(MediaError, match="too long to generate"):
            generate_flow(PlayerFamily.WMP, kbps, duration)

    def test_same_seed_reproducible(self):
        first = generate_flow(PlayerFamily.REAL, 100.0, 20.0, seed=9)
        second = generate_flow(PlayerFamily.REAL, 100.0, 20.0, seed=9)
        assert first.group_payloads() == second.group_payloads()

    @pytest.mark.parametrize("family, kbps, wire_bytes, trace, schedule", [
        (PlayerFamily.WMP, 49.8, 130_128,
         "a838563e2550e0d3cb9ff12bdc9bfea899a431f0a172c877dae77ba77e40c6ee",
         "7f4c6ff2e6ac1922ea5a8c94b00e0c9dd772172b86663c03ddc537164cbfb395"),
        (PlayerFamily.WMP, 307.2, 790_000,
         "d38f74b185809d8c08b527d05550ee4df120a76c4a7096a55eb0306facf36ccf",
         "176ff451e862147b7e461693cc3474b06ec05ec70d57f141ae92530d465dd616"),
        (PlayerFamily.REAL, 36.0, 97_350,
         "71b63f71e9fe4e045c1180b35a0e1f5c0db0b4ee78e40f9c959ca8f829963850",
         "0ae0a8a0d9b09e0b93dd13dc6326b9001335c1a3edc8adc7aeeca0c4bbd4261b"),
        (PlayerFamily.REAL, 284.0, 747_380,
         "9f007b332e878857b5699a314920befa90b9c3f796adf0f9466f21d6d9780de5",
         "4eda73389ee964caf39b21cb3414f216204af776c8b9acaaa81c351644ee292a"),
    ])
    def test_generated_flow_trace_is_pinned(self, family, kbps, wire_bytes,
                                            trace, schedule):
        # A seeded flow at one low and one high rate per product, in the
        # terms every consumer reads: the capture trace (every record
        # field, via the CSV serializer) and the datagram schedule a
        # replayer sends.  The Section IV models share their size and
        # interval draws with the in-simulator pacers, and this holds
        # those draws (values and RNG order) to history.
        flow = generate_flow(family, kbps, 20.0, seed=11)
        text = serialize.dumps(flow.to_trace())
        assert hashlib.sha256(text.encode()).hexdigest() == trace
        payloads = repr(flow.group_payloads())
        assert hashlib.sha256(payloads.encode()).hexdigest() == schedule
        assert flow.total_wire_bytes == wire_bytes

    def test_invalid_duration_rejected(self):
        with pytest.raises(MediaError):
            generate_flow(PlayerFamily.WMP, 100.0, 0.0)

    @given(kbps=st.floats(min_value=20.0, max_value=800.0))
    @settings(max_examples=25, deadline=None)
    def test_generated_rate_matches_request(self, kbps):
        trace = generate_flow(PlayerFamily.WMP, kbps, 10.0, seed=1).to_trace()
        media_bytes = sum(r.ip_bytes - 20 for r in trace)
        udp_overhead = len({r.identification for r in trace}) * 8
        implied_kbps = (media_bytes - udp_overhead) * 8 / 10.0 / 1000.0
        assert implied_kbps == pytest.approx(kbps, rel=0.02)


class TestProfileFitting:
    def wmp_like_trace(self):
        records = []
        for index in range(60):
            records += make_fragment_train(start_number=3 * index + 1,
                                           start_time=index * 0.1,
                                           identification=index + 1)
        from repro.capture.trace import Trace

        return Trace(records, description="wmp-like")

    def test_fit_wmp_profile_classifies_mediaplayer(self):
        profile = fit_profile(self.wmp_like_trace(), encoded_kbps=307.2)
        assert profile.fragments
        assert profile.classify() == "mediaplayer"
        assert profile.typical_group_size == 3
        assert profile.interarrival_cv < 0.05

    def test_fit_real_profile_classifies_realplayer(self):
        # The clip must be long enough that a steady phase follows the
        # burst (a short clip is consumed entirely within the burst).
        flow = generate_flow(PlayerFamily.REAL, 100.0, 200.0, seed=5)
        profile = fit_profile(flow.to_trace(), encoded_kbps=100.0)
        assert not profile.fragments
        assert not profile.is_cbr
        assert profile.bursts
        assert profile.classify() == "realplayer"

    def test_generated_wmp_flow_fits_cbr_profile(self):
        flow = generate_flow(PlayerFamily.WMP, 307.2, 30.0, seed=5)
        profile = fit_profile(flow.to_trace(), encoded_kbps=307.2)
        assert profile.is_cbr
        assert profile.fragment_percent == pytest.approx(66.7, abs=2.0)

    def test_groups_the_trace_once(self, monkeypatch):
        groupings = count_calls(monkeypatch, "repro.capture.reassembly",
                                "group_datagrams")
        trace = self.wmp_like_trace()
        fit = fit_flow(trace, encoded_kbps=307.2)
        assert len(groupings) == 1
        assert fit_profile(trace, encoded_kbps=307.2) == fit.profile
        assert len(groupings) == 2
        assert fit.sizes == [float(r.wire_bytes) for r in trace]
        assert fit.gaps == first_of_group_interarrivals(trace)

    def test_tiny_trace_rejected(self):
        from repro.capture.trace import Trace

        with pytest.raises(AnalysisError):
            fit_profile(Trace(), encoded_kbps=100.0)

    def test_profile_validation(self):
        with pytest.raises(AnalysisError):
            TurbulenceProfile(
                label="bad", encoded_kbps=0.0, mean_packet_bytes=100.0,
                packet_size_cv=0.0, packet_size_pdf=(), adu_size_cv=0.0,
                mean_interarrival=0.1, interarrival_cv=0.0,
                interarrival_pdf=(), fragment_percent=0.0,
                typical_group_size=1)

    def test_summary_row_shape(self):
        flow = generate_flow(PlayerFamily.WMP, 307.2, 20.0, seed=5)
        profile = fit_profile(flow.to_trace(), encoded_kbps=307.2)
        row = profile.summary_row()
        assert len(row) == len(TurbulenceProfile.SUMMARY_HEADERS)


#: UDP payloads either side of the 1500-byte MTU's split points: 1472 B
#: leaves as one packet and 1473 B as two; 2952 B as two, 2953 B as three.
SPLIT_PAYLOADS = (1472, 1473, 2952, 2953)


@st.composite
def schedules(draw):
    """A datagram schedule, (send time, UDP payload bytes) each: from
    no datagram up, times sorted with ties, spanning either side of
    the 4 s a rate series needs."""
    payloads = draw(st.lists(
        st.one_of(st.sampled_from(SPLIT_PAYLOADS),
                  st.integers(min_value=0, max_value=6000)),
        max_size=24))
    span = draw(st.one_of(st.sampled_from((0.0, 3.999, 4.0, 4.001)),
                          st.floats(min_value=0.0, max_value=12.0)))
    inner = draw(st.lists(
        st.one_of(st.just(0.0), st.just(span),
                  st.floats(min_value=0.0, max_value=span)),
        min_size=max(len(payloads) - 2, 0),
        max_size=max(len(payloads) - 2, 0)))
    offsets = ([0.0] + sorted(inner) + [span])[:len(payloads)]
    start = draw(st.floats(min_value=0.0, max_value=1000.0))
    return [(start + offset, payload)
            for offset, payload in zip(offsets, payloads)]


class TestScheduleFit:
    """fit_schedule(flow) is fit_flow(flow.to_trace()), without rows."""

    @given(payloads=schedules(), family=st.sampled_from(PlayerFamily),
           kbps=st.floats(min_value=10.0, max_value=1000.0))
    @example(payloads=[(0.0, 2953)], family=PlayerFamily.WMP, kbps=307.2)
    @example(payloads=[(1.0, 2953), (1.0, 1473)],
             family=PlayerFamily.WMP, kbps=307.2)
    @example(payloads=[(0.0, 1472), (1.5, 1473), (4.0, 2952)],
             family=PlayerFamily.REAL, kbps=36.0)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_trace_fit(self, payloads, family, kbps):
        flow = SyntheticFlow(family, kbps, 10.0, payloads)
        try:
            expected = fit_flow(flow.to_trace(), kbps, label="flow")
        except AnalysisError as exc:
            with pytest.raises(AnalysisError) as raised:
                fit_schedule(flow, "flow")
            assert str(raised.value) == str(exc)
            return
        # repr tells -0.0 from 0.0 and shows every sample.
        assert repr(fit_schedule(flow, "flow")) == repr(expected)

    @pytest.mark.parametrize("family, kbps", [
        (PlayerFamily.WMP, 49.8), (PlayerFamily.WMP, 731.3),
        (PlayerFamily.REAL, 36.0), (PlayerFamily.REAL, 284.0)])
    def test_generated_flows_fit_as_their_traces(self, family, kbps):
        flow = generate_flow(family, kbps, 60.0, seed=11)
        fit = fit_schedule(flow, "flow")
        assert repr(fit) == repr(fit_flow(flow.to_trace(), kbps,
                                          label="flow"))
        assert fit.profile.classify() == (
            "mediaplayer" if family is PlayerFamily.WMP else "realplayer")

    def test_builds_no_trace_and_groups_nothing(self, monkeypatch):
        groupings = count_calls(monkeypatch, "repro.capture.reassembly",
                                "group_datagrams")
        flow = generate_flow(PlayerFamily.WMP, 307.2, 20.0, seed=11)

        def refuse(self, *args, **kwargs):
            raise AssertionError("the schedule fit built a trace")

        monkeypatch.setattr(SyntheticFlow, "to_trace", refuse)
        fit = fit_schedule(flow, "flow")
        assert groupings == []
        assert fit.profile.encoded_kbps == 307.2
        assert fit.profile.fragment_percent == pytest.approx(66.7, abs=0.1)


class TestFlowReplayer:
    def test_replayed_wmp_flow_refragments_in_simulator(self, host_pair):
        flow = generate_flow(PlayerFamily.WMP, 307.2, 5.0, seed=2)
        received = []
        sink = host_pair.right.udp.bind(7000)
        sink.on_receive = received.append
        socket = host_pair.left.udp.bind_ephemeral()
        FlowReplayer(host_pair.sim, socket, host_pair.right.address, 7000,
                     flow).start()
        host_pair.sim.run()
        assert len(received) == len(flow.group_payloads())
        assert received[0].fragment_count == 3

    def test_replayer_cannot_start_twice(self, host_pair):
        flow = generate_flow(PlayerFamily.WMP, 100.0, 2.0, seed=2)
        socket = host_pair.left.udp.bind_ephemeral()
        replayer = FlowReplayer(host_pair.sim, socket,
                                host_pair.right.address, 7000, flow)
        replayer.start()
        with pytest.raises(MediaError):
            replayer.start()
