"""Protocol header models.

Packets in the simulator carry structured header objects rather than
raw bytes; byte counts are computed from them (so queueing and
serialization delays are realistic), and the pcap writer serializes
them into genuine wire-format bytes when a capture is exported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

from repro import units
from repro.netsim.addressing import IPAddress


class IpProtocol(IntEnum):
    """IANA protocol numbers used by the simulator."""

    ICMP = 1
    TCP = 6
    UDP = 17


@dataclass
class IPv4Header:
    """The fields of an IPv4 header the study's analysis depends on.

    ``identification``, ``more_fragments`` and ``fragment_offset`` drive
    the fragmentation analysis (Figures 4 and 5); ``total_length``
    determines wire size.  The TTL, the one field a router rewrites,
    is :attr:`repro.netsim.packet.Packet.ttl`, so a header is never
    copied in flight.  Not frozen, since every packet builds one:
    nothing changes or hashes a header once a packet holds it.
    """

    src: IPAddress
    dst: IPAddress
    protocol: IpProtocol
    total_length: int
    identification: int = 0
    more_fragments: bool = False
    fragment_offset: int = 0  # in 8-byte units, as on the wire

    @property
    def header_bytes(self) -> int:
        return units.IPV4_HEADER_BYTES

    @property
    def payload_bytes(self) -> int:
        return self.total_length - self.header_bytes

    @property
    def is_fragment(self) -> bool:
        """True for any packet that is part of a fragmented datagram."""
        return self.more_fragments or self.fragment_offset > 0

    @property
    def is_trailing_fragment(self) -> bool:
        """True for second-and-later fragments (offset > 0).

        Ethereal displays the first fragment of a fragmented UDP
        datagram as the "UDP packet" of the group and the rest as "IP
        fragments"; the paper's Figure 4/5 terminology follows that, so
        analysis code counts trailing fragments.
        """
        return self.fragment_offset > 0


@dataclass(frozen=True)
class UdpHeader:
    """UDP header: ports plus the datagram length field."""

    src_port: int
    dst_port: int
    length: int  # header + payload bytes, as on the wire

    @property
    def header_bytes(self) -> int:
        return units.UDP_HEADER_BYTES

    @property
    def payload_bytes(self) -> int:
        return self.length - self.header_bytes


@dataclass(frozen=True)
class TcpHeader:
    """A minimal TCP header (no options modeled)."""

    src_port: int
    dst_port: int
    seq: int
    ack: int
    syn: bool = False
    fin: bool = False
    ack_flag: bool = False

    @property
    def header_bytes(self) -> int:
        return units.TCP_HEADER_BYTES


@dataclass(frozen=True)
class IcmpHeader:
    """ICMP header for echo and TTL-exceeded messages."""

    icmp_type: int
    code: int = 0
    identifier: int = 0
    sequence: int = 0

    @property
    def header_bytes(self) -> int:
        return units.ICMP_HEADER_BYTES


@dataclass
class PayloadMeta:
    """Application-meaning attached to a packet's payload.

    The simulator does not move real media bytes around; instead each
    datagram carries this metadata so players and analyzers can relate
    network packets back to application data units (media frames,
    control messages, echo probes).
    """

    kind: str = "data"
    adu_sequence: Optional[int] = None
    frame_numbers: tuple = field(default_factory=tuple)
    media_time: Optional[float] = None
    message: Optional[object] = None
    #: Root provenance span of the ADU this payload belongs to, set by
    #: the pacer when span tracing is on; rides the metadata through
    #: fragmentation and reassembly to the receiving player.
    span: Optional[object] = None
    #: Simulated send time, stamped only when congestion control is
    #: armed (``Pacer.enable_cc_stamping``); the receiver turns it into
    #: delay/jitter samples for its receiver reports.
    sent_at: Optional[float] = None
    #: FEC group index, set only on ``fec-parity`` datagrams when the
    #: repair stack is armed (repro.repair).
    fec_group: Optional[int] = None
    #: Member descriptors (the FEC/RTX header): which sequences a
    #: parity datagram protects, or the original descriptor riding a
    #: retransmission.  Empty on all non-repair traffic.
    fec_members: tuple = field(default_factory=tuple)
    #: Original ADU sequence a ``media-rtx`` datagram re-carries.
    retransmit_of: Optional[int] = None
