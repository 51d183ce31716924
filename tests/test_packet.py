"""Packet and header model tests."""

import copy
import pickle
from dataclasses import fields, replace

import pytest

from repro import units
from repro.capture.sniffer import Sniffer
from repro.errors import PacketError
from repro.media.clip import Clip, ClipEncoding, PlayerFamily
from repro.netsim.addressing import IPAddress
from repro.netsim.engine import Simulator
from repro.netsim.flowlevel import FlowLevelConfig
from repro.netsim.headers import IPv4Header, IpProtocol, PayloadMeta, UdpHeader
from repro.netsim.packet import Packet
from repro.netsim.topology import build_path_topology
from repro.players.mediatracker import MediaTracker
from repro.servers.wms import WindowsMediaServer

from .conftest import HostPair

SRC = IPAddress.parse("64.14.118.1")
DST = IPAddress.parse("130.215.0.1")
UDP = UdpHeader(src_port=1755, dst_port=7000, length=4008)


def make_header(**overrides):
    fields = dict(src=SRC, dst=DST, protocol=IpProtocol.UDP,
                  total_length=1500, identification=7)
    fields.update(overrides)
    return IPv4Header(**fields)


class TestIPv4Header:
    def test_payload_bytes(self):
        assert make_header(total_length=1500).payload_bytes == 1480

    def test_not_fragment_by_default(self):
        header = make_header()
        assert not header.is_fragment
        assert not header.is_trailing_fragment

    def test_first_fragment_flags(self):
        header = make_header(more_fragments=True, fragment_offset=0)
        assert header.is_fragment
        assert not header.is_trailing_fragment

    def test_trailing_fragment_flags(self):
        header = make_header(more_fragments=False, fragment_offset=185)
        assert header.is_fragment
        assert header.is_trailing_fragment


class TestPacket:
    def test_wire_bytes_adds_ethernet_header(self):
        packet = Packet(ip=make_header(total_length=1500))
        assert packet.wire_bytes == 1514

    def test_total_length_smaller_than_header_rejected(self):
        with pytest.raises(PacketError):
            Packet(ip=make_header(total_length=10))

    def test_trailing_fragment_with_transport_rejected(self):
        header = make_header(fragment_offset=185)
        udp = UdpHeader(src_port=1, dst_port=2, length=100)
        with pytest.raises(PacketError):
            Packet(ip=header, transport=udp)

    def test_uids_are_unique(self):
        a = Packet(ip=make_header())
        b = Packet(ip=make_header())
        assert a.uid != b.uid

    def test_forwarded_decrements_ttl_keeps_identity(self):
        # A router sends on the very packet it received, one TTL lower.
        sim = Simulator(seed=1)
        path = build_path_topology(sim, hop_count=2)
        router = path.routers[0]
        packet = Packet(ip=make_header(src=path.server.address,
                                       dst=path.client.address),
                        ttl=5, transport=UDP, datagram_id=99)
        uid = packet.uid
        seen = []
        router.add_tap(lambda direction, tapped, now: seen.append(
            (direction, tapped is packet, tapped.ttl)))
        path.server.neighbors[router].send_from(path.server, packet)
        sim.run()
        assert seen == [("rx", True, 5), ("tx", True, 4)]
        assert (packet.uid, packet.datagram_id) == (uid, 99)
        assert packet.transport is UDP

    def test_forwarding_dead_packet_rejected(self):
        # A router answers a packet that arrives with TTL 1 with ICMP
        # time-exceeded, and leaves that packet as it arrived.
        sim = Simulator(seed=1)
        path = build_path_topology(sim, hop_count=4)
        sniffer = Sniffer(path.server).start()
        sent = path.server.ip.send(
            path.client.address, IpProtocol.UDP, UDP,
            units.UDP_HEADER_BYTES, 100, ttl=1)
        sim.run()
        trace = sniffer.stop()
        assert [packet.ttl for packet in sent] == [1]
        assert sum(router.ttl_expired for router in path.routers) == 1
        assert sum(router.forwarded for router in path.routers) == 0
        assert [(row.direction, row.protocol, row.payload_kind)
                for row in trace] == [
            ("tx", "UDP", "data"), ("rx", "ICMP", "icmp-time-exceeded")]
        assert path.client.ip.stats.packets_received == 0


def reference_forward(packet, hops):
    """The packet ``hops`` routers emit, as ``dataclasses.replace``
    builds it: the same fields, uid included, with a lower TTL."""
    return replace(packet, ttl=packet.ttl - hops)


SHAPES = {
    "unfragmented": dict(header=dict(total_length=1028), transport=UDP),
    "first-fragment": dict(header=dict(more_fragments=True), transport=UDP),
    "trailing-fragment": dict(header=dict(fragment_offset=185),
                              transport=None),
}


def fragments_of(payload_bytes):
    """The packets a host's IP layer emits for one UDP datagram."""
    pair = HostPair(Simulator())
    header = UdpHeader(src_port=1, dst_port=2,
                       length=units.UDP_HEADER_BYTES + payload_bytes)
    return pair.left.ip.send(pair.right.address, IpProtocol.UDP, header,
                             units.UDP_HEADER_BYTES, payload_bytes)


#: Every way a packet comes to exist: name -> packet of a given shape.
MAKERS = {
    "constructor": lambda packet: packet,
    "replace": lambda packet: replace(packet, datagram_id=5),
    "replace-ip": lambda packet: replace(
        packet, ip=replace(packet.ip, total_length=packet.ip_bytes - 8)),
    "pickle": lambda packet: pickle.loads(pickle.dumps(packet)),
    "copy": copy.copy,
}


class TestForwardedCopy:
    """A forwarded packet beside its copies.  A router changes only the
    TTL of the packet it forwards.  ``ip_bytes`` and ``wire_bytes`` are
    attributes computed once, not fields, so every path that builds a
    packet must get them right and the dataclass surface (fields,
    equality) must not see them."""

    @pytest.mark.parametrize("hops", [1, 3, 17])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_matches_the_replace_reference_field_for_field(self, shape, hops):
        sim = Simulator(seed=1)
        path = build_path_topology(sim, hop_count=hops + 1)
        packet = Packet(ip=make_header(src=path.server.address,
                                       dst=path.client.address,
                                       **SHAPES[shape]["header"]),
                        ttl=64, transport=SHAPES[shape]["transport"],
                        payload=PayloadMeta(kind="media", adu_sequence=3),
                        datagram_id=41, span=object())
        reference = reference_forward(packet, hops)
        header = packet.ip
        arrived = []
        path.client.add_tap(
            lambda direction, tapped, now: arrived.append(tapped))
        path.server.send_packet(packet)
        sim.run()
        assert len(arrived) == 1 and arrived[0] is packet
        for field in fields(Packet):
            assert getattr(packet, field.name) == getattr(
                reference, field.name), field.name
        assert packet.ttl == 64 - hops
        assert packet.ip is header  # the sender's header, never copied
        # Same field order and values, so the same bytes when pickled.
        assert pickle.dumps(packet) == pickle.dumps(reference)

    def test_replace_keeps_the_lowered_ttl(self):
        # The TTL is a field, so rebuilding a forwarded packet cannot
        # restore the sender's value.
        packet = Packet(ip=make_header(), ttl=64)
        packet.ttl -= 3  # what three routers do
        assert replace(packet, datagram_id=5).ttl == 61
        assert pickle.loads(pickle.dumps(packet)).ttl == 61

    @staticmethod
    def assert_sizes(packet):
        assert packet.ip_bytes == packet.ip.total_length
        assert packet.wire_bytes == units.wire_frame_bytes(
            packet.ip.total_length)

    @pytest.mark.parametrize("maker", sorted(MAKERS))
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_every_construction_path_sizes_the_packet(self, shape, maker):
        packet = Packet(ip=make_header(**SHAPES[shape]["header"]), ttl=64,
                        transport=SHAPES[shape]["transport"])
        self.assert_sizes(MAKERS[maker](packet))

    @pytest.mark.parametrize("payload_bytes", [
        0, 900, units.MAX_UNFRAGMENTED_UDP_PAYLOAD,
        units.MAX_UNFRAGMENTED_UDP_PAYLOAD + 1, 3840, 20000])
    def test_ip_layer_fragments_are_sized(self, payload_bytes):
        packets = fragments_of(payload_bytes)
        for packet in packets:
            self.assert_sizes(packet)
        assert sum(p.ip_bytes for p in packets) == (
            units.UDP_HEADER_BYTES + payload_bytes
            + units.IPV4_HEADER_BYTES * len(packets))

    def test_sizes_are_not_dataclass_fields(self):
        assert [f.name for f in fields(Packet)] == [
            "ip", "ttl", "transport", "payload", "uid", "datagram_id",
            "span"]

    def test_equality_still_compares_the_fields_alone(self):
        packet = Packet(ip=make_header(), transport=UDP, span=object())
        assert copy.copy(packet) == packet
        assert pickle.loads(pickle.dumps(packet)) == packet
        assert replace(packet, span=None) == packet  # span: compare=False
        assert replace(packet, datagram_id=1) != packet
        assert replace(packet, ttl=1) != packet
        assert replace(packet, uid=packet.uid + 1) != packet


def stream_news_clip(sim, path):
    """Stream a 10 s WMP clip from ``path.server`` to ``path.client``."""
    server = WindowsMediaServer(path.server)
    server.add_clip(Clip(
        title="news-m", genre="News", duration=10.0,
        encoding=ClipEncoding(family=PlayerFamily.WMP, encoded_kbps=307.2,
                              advertised_kbps=300.0)))
    MediaTracker(path.client, path.server.address).play("news-m")
    sim.run(until=40.0)


MODES = pytest.mark.parametrize("fast_path", [None, FlowLevelConfig()],
                                ids=["packet-level", "fast-path"])


class TestTtlAcrossAPath:
    """Every packet a client captures has lost one TTL per router,
    whether the routers forwarded it hop by hop or the flow-level fast
    path delivered it across the whole path at once."""

    @MODES
    def test_rx_rows_carry_the_sender_ttl_minus_the_routers(self,
                                                            fast_path):
        sim = Simulator(seed=7, fast_path=fast_path)
        path = build_path_topology(sim, hop_count=17, rtt=0.040)
        sniffer = Sniffer(path.client).start()
        stream_news_clip(sim, path)
        trace = sniffer.stop()
        assert len(path.routers) == 16
        # The client's own requests leave with the sender's TTL.
        assert {(row.direction, row.ttl) for row in trace} == {
            ("rx", 128 - 16), ("tx", 128)}
        if fast_path is not None:
            assert sim.fast_path.packets_fast > 0


class TestOnePacketEndToEnd:
    """Routers forward the packet they received, so a packet is one
    object with one uid from the sender's IP layer to the receiver's."""

    @MODES
    def test_client_receives_the_objects_the_sender_built(self, fast_path,
                                                          monkeypatch):
        sim = Simulator(seed=7, fast_path=fast_path)
        path = build_path_topology(sim, hop_count=4, rtt=0.040)
        received = []
        deliver = path.client.ip.receive

        def record(packet):
            received.append(packet)
            deliver(packet)

        monkeypatch.setattr(path.client.ip, "receive", record)
        payload_bytes = 3840
        header = UdpHeader(src_port=1755, dst_port=7000,
                           length=units.UDP_HEADER_BYTES + payload_bytes)
        sent = path.server.ip.send(path.client.address, IpProtocol.UDP,
                                   header, units.UDP_HEADER_BYTES,
                                   payload_bytes)
        uids = [packet.uid for packet in sent]
        sim.run()
        assert len(path.routers) == 3 and len(sent) == 3
        assert len(received) == 3
        assert all(got is built for got, built in zip(received, sent))
        assert [packet.ttl for packet in received] == [128 - 3] * 3
        assert [packet.uid for packet in received] == uids
        assert path.client.ip.stats.datagrams_delivered == 1
        if fast_path is not None:
            assert sim.fast_path.packets_fast == 3

    @MODES
    def test_capture_rows_join_on_uid_across_the_path(self, fast_path):
        sim = Simulator(seed=7, fast_path=fast_path)
        path = build_path_topology(sim, hop_count=17, rtt=0.040)
        client = Sniffer(path.client).start()
        server = Sniffer(path.server).start()
        stream_news_clip(sim, path)
        sent = {row.uid: row for row in server.stop()
                if row.direction == "tx"}
        received = [row for row in client.stop() if row.direction == "rx"]
        assert len(received) > 100
        for row in received:
            tx = sent[row.uid]
            assert (tx.datagram_id, tx.fragment_offset) == (
                row.datagram_id, row.fragment_offset)
            assert (tx.ttl, row.ttl) == (128, 128 - 16)
