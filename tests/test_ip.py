"""IP layer tests: fragmentation arithmetic, reassembly, timeouts.

These tests pin down the exact wire behavior the paper measured: an
oversized UDP datagram becomes one 1514-byte first fragment carrying
the UDP header, full 1514-byte middle fragments, and a shorter final
fragment — and the receiver reassembles them into a single datagram.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.errors import PacketError
from repro.netsim.engine import Simulator
from repro.netsim.headers import IpProtocol, PayloadMeta, UdpHeader
from repro.netsim.ip import REASSEMBLY_TIMEOUT_SECONDS, ReassemblyBuffer

from .conftest import HostPair


def send_udp(pair, payload_bytes):
    """Send one UDP datagram left->right; return the emitted packets."""
    header = UdpHeader(src_port=1000, dst_port=2000,
                       length=units.UDP_HEADER_BYTES + payload_bytes)
    return pair.left.ip.send(pair.right.address, IpProtocol.UDP, header,
                             units.UDP_HEADER_BYTES, payload_bytes)


class TestFragmentationArithmetic:
    def test_small_datagram_is_one_packet(self, host_pair):
        packets = send_udp(host_pair, 900)
        assert len(packets) == 1
        assert not packets[0].is_fragment
        assert packets[0].ip_bytes == 20 + 8 + 900

    def test_exact_mtu_fit_not_fragmented(self, host_pair):
        packets = send_udp(host_pair, units.MAX_UNFRAGMENTED_UDP_PAYLOAD)
        assert len(packets) == 1
        assert packets[0].ip_bytes == 1500

    def test_one_byte_over_mtu_fragments(self, host_pair):
        packets = send_udp(host_pair, units.MAX_UNFRAGMENTED_UDP_PAYLOAD + 1)
        assert len(packets) == 2
        assert packets[0].ip.more_fragments
        assert packets[1].is_trailing_fragment

    def test_wms_sized_adu_makes_paper_shaped_group(self, host_pair):
        # A ~3840-byte ADU (307 Kbps / 100 ms tick) must produce one UDP
        # first fragment and two trailing fragments, the first two being
        # 1514-byte wire frames — exactly the groups of Figure 4.
        packets = send_udp(host_pair, 3840)
        assert len(packets) == 3
        assert packets[0].transport is not None
        assert packets[1].transport is None
        assert packets[0].wire_bytes == 1514
        assert packets[1].wire_bytes == 1514
        assert packets[2].wire_bytes < 1514

    def test_fragment_offsets_are_contiguous(self, host_pair):
        packets = send_udp(host_pair, 5000)
        offset = 0
        for packet in packets:
            assert packet.ip.fragment_offset * 8 == offset
            offset += packet.ip.payload_bytes
        assert offset == 5000 + units.UDP_HEADER_BYTES

    def test_all_fragments_share_identification(self, host_pair):
        packets = send_udp(host_pair, 5000)
        idents = {p.ip.identification for p in packets}
        assert len(idents) == 1

    def test_identifications_increment_between_datagrams(self, host_pair):
        first = send_udp(host_pair, 100)[0]
        second = send_udp(host_pair, 100)[0]
        assert second.ip.identification == first.ip.identification + 1

    def test_negative_payload_rejected(self, host_pair):
        with pytest.raises(PacketError):
            send_udp(host_pair, -1)


class TestReassembly:
    def deliver(self, pair):
        received = []
        socket = pair.right.udp.bind(2000)
        socket.on_receive = received.append
        return received

    def test_unfragmented_delivery(self, host_pair):
        received = self.deliver(host_pair)
        send_udp(host_pair, 500)
        host_pair.sim.run()
        assert len(received) == 1
        assert received[0].payload_bytes == 500
        assert received[0].fragment_count == 1

    def test_fragmented_datagram_reassembled(self, host_pair):
        received = self.deliver(host_pair)
        send_udp(host_pair, 3840)
        host_pair.sim.run()
        assert len(received) == 1
        assert received[0].payload_bytes == 3840
        assert received[0].fragment_count == 3

    def test_interleaved_datagrams_reassembled_separately(self, host_pair):
        received = self.deliver(host_pair)
        send_udp(host_pair, 3000)
        send_udp(host_pair, 4000)
        host_pair.sim.run()
        assert sorted(d.payload_bytes for d in received) == [3000, 4000]

    def test_fragment_train_timestamps_span(self, host_pair):
        received = self.deliver(host_pair)
        send_udp(host_pair, 10_000)
        host_pair.sim.run()
        datagram = received[0]
        assert datagram.arrival_time > datagram.first_packet_time

    def test_lost_fragment_discards_whole_datagram(self, host_pair):
        received = self.deliver(host_pair)
        # Intercept emission so the link never delivers the packets; we
        # hand over all fragments but the middle one, simulating its loss.
        captured = []
        host_pair.left.send_packet = captured.append
        send_udp(host_pair, 3840)
        sim = host_pair.sim
        for packet in (captured[0], captured[2]):
            host_pair.right.ip.receive(packet)
        sim.run(until=REASSEMBLY_TIMEOUT_SECONDS * 2 + 1)
        assert received == []
        assert host_pair.right.ip.stats.reassembly_timeouts >= 1
        assert host_pair.right.ip.stats.wasted_fragment_bytes > 0

    def test_pending_reassemblies_counts_incomplete(self, host_pair):
        packets = send_udp(host_pair, 3840)
        host_pair.right.ip.receive(packets[0])
        assert host_pair.right.ip.pending_reassemblies == 1


class TestReassemblyBuffer:
    def test_duplicate_offset_rejected(self, host_pair):
        packets = send_udp(host_pair, 3840)
        buffer = ReassemblyBuffer(first_seen=0.0)
        buffer.add(packets[0], 0.0)
        with pytest.raises(PacketError):
            buffer.add(packets[0], 0.1)

    def test_first_fragment_required_for_completeness(self, host_pair):
        packets = send_udp(host_pair, 3000)
        buffer = ReassemblyBuffer(first_seen=0.0)
        for packet in packets[1:]:
            buffer.add(packet, 0.0)
        assert not buffer.complete

    def test_first_fragment_accessor_raises_when_missing(self, host_pair):
        packets = send_udp(host_pair, 3000)
        buffer = ReassemblyBuffer(first_seen=0.0)
        buffer.add(packets[1], 0.0)
        with pytest.raises(PacketError):
            buffer.first_fragment()


class TestFragmentationProperties:
    @given(payload=st.integers(min_value=0, max_value=65_000))
    @settings(max_examples=60, deadline=None)
    def test_fragments_conserve_bytes_and_reassemble(self, payload):
        sim = Simulator(seed=1)
        pair = HostPair(sim)
        received = []
        socket = pair.right.udp.bind(2000)
        socket.on_receive = received.append
        pair.left.udp.bind(1000).send(pair.right.address, 2000, payload)
        sim.run()
        assert len(received) == 1
        assert received[0].payload_bytes == payload
        # Byte conservation: IP payload across fragments equals UDP
        # header + payload.
        sent = pair.left.ip.stats
        assert sent.datagrams_sent == 1

    @given(payload=st.integers(min_value=1473, max_value=65_000))
    @settings(max_examples=60, deadline=None)
    def test_fragment_count_formula(self, payload):
        sim = Simulator(seed=1)
        pair = HostPair(sim)
        header = UdpHeader(src_port=1, dst_port=2,
                           length=units.UDP_HEADER_BYTES + payload)
        packets = pair.left.ip.send(pair.right.address, IpProtocol.UDP,
                                    header, units.UDP_HEADER_BYTES, payload)
        ip_payload = payload + units.UDP_HEADER_BYTES
        full = units.DEFAULT_MTU_BYTES - units.IPV4_HEADER_BYTES
        expected = -(-ip_payload // full)
        assert len(packets) == expected
        # Every fragment except the last is full-size on the wire.
        for packet in packets[:-1]:
            assert packet.wire_bytes == units.MAX_WIRE_FRAME_BYTES
