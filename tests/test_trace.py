"""Trace container tests."""

import pickle
import sys
from dataclasses import fields, replace

import pytest

from repro.capture.trace import PacketRecord, Trace
from repro.core.generator import generate_flow
from repro.errors import CaptureError
from repro.media.clip import PlayerFamily
from repro.netsim.addressing import IPAddress
from repro.netsim.headers import (
    IcmpHeader,
    IPv4Header,
    IpProtocol,
    PayloadMeta,
    TcpHeader,
    UdpHeader,
)
from repro.netsim.packet import Packet
from repro.telemetry.spans import Span

from .helpers import CLIENT, SERVER, make_record

OTHER = IPAddress.parse("64.14.118.2")


@pytest.fixture
def trace():
    records = [
        make_record(number=1, time=0.0, src=SERVER, dst_port=7000),
        make_record(number=2, time=0.1, src=OTHER, dst_port=7001),
        make_record(number=3, time=0.2, src=SERVER, dst_port=7000,
                    direction="tx"),
        make_record(number=4, time=0.3, src=SERVER, protocol="TCP",
                    dst_port=554),
        make_record(number=5, time=1.0, src=OTHER, dst_port=7001),
    ]
    return Trace(records, description="unit test")


class TestContainer:
    def test_len_and_iteration(self, trace):
        assert len(trace) == 5
        assert [r.number for r in trace] == [1, 2, 3, 4, 5]

    def test_indexing_and_slicing(self, trace):
        assert trace[0].number == 1
        sliced = trace[1:3]
        assert isinstance(sliced, Trace)
        assert [r.number for r in sliced] == [2, 3]

    def test_append(self):
        trace = Trace()
        trace.append(make_record())
        assert len(trace) == 1


class TestViews:
    def test_filter_predicate(self, trace):
        only_server = trace.filter(lambda r: r.src == SERVER)
        assert [r.number for r in only_server] == [1, 3, 4]

    def test_between_is_half_open(self, trace):
        window = trace.between(0.1, 1.0)
        assert [r.number for r in window] == [2, 3, 4]

    def test_received_excludes_tx(self, trace):
        assert [r.number for r in trace.received()] == [1, 2, 4, 5]

    def test_udp_view(self, trace):
        assert all(r.protocol == "UDP" for r in trace.udp())
        assert len(trace.udp()) == 4

    def test_flow_by_source(self, trace):
        assert [r.number for r in trace.flow(OTHER)] == [2, 5]

    def test_flow_by_source_and_port(self, trace):
        flow = trace.flow(SERVER, dst_port=7000)
        assert [r.number for r in flow] == [1, 3]

    def test_flow_includes_trailing_fragments(self):
        records = [
            make_record(number=1, time=0.0, more_fragments=True),
            make_record(number=2, time=0.001, fragment_offset=185),
        ]
        trace = Trace(records)
        flow = trace.flow(SERVER, dst_port=7000)
        assert len(flow) == 2


class TestStatistics:
    def test_duration(self, trace):
        assert trace.duration == pytest.approx(1.0)

    def test_duration_of_tiny_trace_is_zero(self):
        assert Trace([make_record()]).duration == 0.0

    def test_byte_totals(self, trace):
        assert trace.total_ip_bytes == 5 * 1000
        assert trace.total_wire_bytes == 5 * 1014

    def test_times_and_sizes(self, trace):
        assert trace.times() == [0.0, 0.1, 0.2, 0.3, 1.0]
        assert set(trace.sizes()) == {1014}
        assert set(trace.sizes(wire=False)) == {1000}

    def test_average_rate(self, trace):
        expected = 5 * 1014 * 8 / 1.0
        assert trace.average_rate_bps() == pytest.approx(expected)

    def test_average_rate_requires_duration(self):
        with pytest.raises(CaptureError):
            Trace([make_record()]).average_rate_bps()

    def test_conversations_sorted_by_volume(self, trace):
        conversations = trace.conversations()
        assert conversations[0][0] == SERVER
        assert conversations[0][2] == 3


class TestPickle:
    """Rows pickle as their field values, rebuilt through __init__."""

    @pytest.mark.parametrize("protocol",
                             range(pickle.HIGHEST_PROTOCOL + 1))
    def test_round_trip_keeps_every_field(self, protocol):
        records = [
            replace(make_record(number=1, adu_sequence=4, datagram_id=9),
                    span_id=17, span_trace=3, uid=41),
            # a trailing fragment: no ports
            replace(make_record(number=2, time=0.5, fragment_offset=185,
                                datagram_id=9), span_id=18, span_trace=3),
            make_record(number=3, time=1.0, src=OTHER, direction="tx"),
        ]
        trace = Trace(records, description="spans and fragments")
        restored = pickle.loads(pickle.dumps(trace, protocol))
        assert restored.records == records
        assert restored.description == trace.description
        assert all(type(record) is PacketRecord
                   for record in restored.records)

    def test_pickled_form_is_the_field_values(self):
        record = make_record(number=5, adu_sequence=2)
        assert record.__reduce__() == (PacketRecord, tuple(
            getattr(record, spec.name) for spec in fields(PacketRecord)))

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="pickle bytes pinned on Python 3.11")
    def test_seeded_flow_pickles_to_pinned_bytes(self):
        # The `repro generate wmp 307.2 20 --seed 11` flow, 600 rows.
        # Pickled as a 22-key state dict per row it took 61,174 B.
        trace = generate_flow(PlayerFamily.WMP, 307.2, 20.0,
                              seed=11).to_trace()
        assert len(trace) == 600
        assert len(pickle.dumps(trace)) == 32_753


#: PacketRecord's fields, in order: ``from_packet`` passes every value
#: positionally.
FIELD_ORDER = [
    "number", "time", "direction", "src", "dst", "protocol", "ip_bytes",
    "wire_bytes", "ttl", "identification", "is_fragment",
    "is_trailing_fragment", "more_fragments", "fragment_offset",
    "src_port", "dst_port", "payload_kind", "adu_sequence", "datagram_id",
    "uid", "span_id", "span_trace",
]


def ip_header(protocol, total_length, more_fragments=False,
              fragment_offset=0):
    return IPv4Header(src=SERVER, dst=CLIENT, protocol=protocol,
                      total_length=total_length, identification=7,
                      more_fragments=more_fragments,
                      fragment_offset=fragment_offset)


#: (packet, the row from_packet must make of it, by keyword).  Values
#: differ between neighbouring fields of one type, so a swap shows.
ROW_CASES = {
    "udp-first-fragment": (
        Packet(ip=ip_header(IpProtocol.UDP, 1500, more_fragments=True),
               ttl=114, transport=UdpHeader(5005, 7000, 3848),
               payload=PayloadMeta(kind="media", adu_sequence=4),
               uid=41, datagram_id=9),
        dict(protocol="UDP", ip_bytes=1500, wire_bytes=1514, ttl=114,
             is_fragment=True, is_trailing_fragment=False,
             more_fragments=True, fragment_offset=0, src_port=5005,
             dst_port=7000, payload_kind="media", adu_sequence=4,
             datagram_id=9, uid=41)),
    "trailing-fragment": (
        Packet(ip=ip_header(IpProtocol.UDP, 908, fragment_offset=370),
               ttl=113, payload=PayloadMeta(kind="media", adu_sequence=4),
               uid=43, datagram_id=9),
        dict(protocol="UDP", ip_bytes=908, wire_bytes=922, ttl=113,
             is_fragment=True, is_trailing_fragment=True,
             more_fragments=False, fragment_offset=370, src_port=None,
             dst_port=None, payload_kind="media", adu_sequence=4,
             datagram_id=9, uid=43)),
    "tcp-segment": (
        Packet(ip=ip_header(IpProtocol.TCP, 60), ttl=60,
               transport=TcpHeader(554, 1042, seq=1, ack=2),
               payload=PayloadMeta(kind="control"), uid=44,
               datagram_id=11),
        dict(protocol="TCP", ip_bytes=60, wire_bytes=74, ttl=60,
             is_fragment=False, is_trailing_fragment=False,
             more_fragments=False, fragment_offset=0, src_port=554,
             dst_port=1042, payload_kind="control", adu_sequence=None,
             datagram_id=11, uid=44)),
    "icmp-echo": (
        Packet(ip=ip_header(IpProtocol.ICMP, 92), ttl=1,
               transport=IcmpHeader(8, identifier=3, sequence=5),
               payload=PayloadMeta(kind="probe"), uid=45,
               datagram_id=12),
        dict(protocol="ICMP", ip_bytes=92, wire_bytes=106, ttl=1,
             is_fragment=False, is_trailing_fragment=False,
             more_fragments=False, fragment_offset=0, src_port=None,
             dst_port=None, payload_kind="probe", adu_sequence=None,
             datagram_id=12, uid=45)),
    "span": (
        Packet(ip=ip_header(IpProtocol.UDP, 700), ttl=120,
               transport=UdpHeader(5005, 7000, 680),
               payload=PayloadMeta(kind="media", adu_sequence=6),
               uid=46, datagram_id=13,
               span=Span(17, 3, 16, "packet", 0.5)),
        dict(protocol="UDP", ip_bytes=700, wire_bytes=714, ttl=120,
             is_fragment=False, is_trailing_fragment=False,
             more_fragments=False, fragment_offset=0, src_port=5005,
             dst_port=7000, payload_kind="media", adu_sequence=6,
             datagram_id=13, uid=46, span_id=17, span_trace=3)),
}


class TestRowBuilders:
    """The positional builder matches PacketRecord's field order."""

    def test_field_order_is_pinned(self):
        assert [spec.name for spec in fields(PacketRecord)] == FIELD_ORDER

    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_from_packet_matches_a_keyword_row(self, case):
        packet, values = ROW_CASES[case]
        row = PacketRecord.from_packet(21, 2.5, "rx", packet)
        expected = PacketRecord(number=21, time=2.5, direction="rx",
                                src=SERVER, dst=CLIENT, identification=7,
                                **values)
        assert row == expected
        # repr also tells True from 1, which == does not.
        assert repr(row) == repr(expected)
