"""Unit-conversion and wire-arithmetic tests."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import units
from repro.analysis.fragmentation import expected_fragment_percent


class TestRates:
    def test_kbps_is_thousand_bits(self):
        assert units.kbps(300) == 300_000

    def test_mbps_is_million_bits(self):
        assert units.mbps(10) == 10_000_000

    def test_to_kbps_round_trips(self):
        assert units.to_kbps(units.kbps(284.0)) == pytest.approx(284.0)


class TestBytesAndBits:
    def test_bits_to_bytes(self):
        assert units.bits_to_bytes(8000) == 1000

    def test_bytes_to_bits(self):
        assert units.bytes_to_bits(1514) == 12112

    def test_round_trip(self):
        assert units.bits_to_bytes(units.bytes_to_bits(777)) == 777


class TestTime:
    def test_ms(self):
        assert units.ms(40) == pytest.approx(0.040)

    def test_to_ms(self):
        assert units.to_ms(0.16) == pytest.approx(160.0)


class TestTransmissionDelay:
    def test_ten_megabit_full_frame(self):
        # A 1514-byte frame on a 10 Mbps link takes ~1.21 ms.
        delay = units.transmission_delay(1514, units.mbps(10))
        assert delay == pytest.approx(1514 * 8 / 10e6)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            units.transmission_delay(100, 0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            units.transmission_delay(100, -1)


class TestWireConstants:
    def test_max_wire_frame_matches_paper(self):
        # The paper observed 1514-byte wire frames for full fragments.
        assert units.MAX_WIRE_FRAME_BYTES == 1514

    def test_fragment_payload(self):
        assert units.fragment_payloads(1481) == [1480, 1]

    def test_max_unfragmented_udp_payload(self):
        assert units.MAX_UNFRAGMENTED_UDP_PAYLOAD == 1472

    def test_wire_frame_bytes_adds_ethernet(self):
        assert units.wire_frame_bytes(1500) == 1514


def reference_fragment_payloads(ip_payload, mtu):
    """The split as ``IpLayer.send`` once wrote it inline: the reference
    the one rule in ``units`` is held to."""
    max_ip_payload = mtu - units.IPV4_HEADER_BYTES
    if ip_payload <= max_ip_payload:
        return [ip_payload]
    chunk = (max_ip_payload // 8) * 8
    count = math.ceil(ip_payload / chunk)
    sizes = []
    remaining = ip_payload
    for _ in range(count):
        this_payload = min(chunk, remaining)
        sizes.append(this_payload)
        remaining -= this_payload
    return sizes


class TestFragmentPayloads:
    @given(ip_payload=st.integers(min_value=0, max_value=65_515),
           mtu=st.integers(min_value=29, max_value=9_000))
    # Exactly fills an MTU whose payload room is not 8-aligned.
    @example(ip_payload=986, mtu=1006)
    # A whole number of full 1480-byte fragments: no empty tail.
    @example(ip_payload=2960, mtu=1500)
    # 986 bytes of room: full fragments carry 984, not 986.
    @example(ip_payload=2000, mtu=1006)
    @settings(max_examples=300, deadline=None)
    def test_one_rule_matches_the_ip_layer_loop(self, ip_payload, mtu):
        sizes = units.fragment_payloads(ip_payload, mtu)
        assert sizes == reference_fragment_payloads(ip_payload, mtu)
        assert sum(sizes) == ip_payload
        adu = ip_payload - units.UDP_HEADER_BYTES
        if adu > 0:
            n = len(units.fragment_payloads(adu + units.UDP_HEADER_BYTES))
            assert expected_fragment_percent(adu) == 100.0 * (n - 1) / n
