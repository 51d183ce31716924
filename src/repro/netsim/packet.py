"""The packet object that moves through the simulated network.

A :class:`Packet` is one IP packet (possibly a fragment) together with
its transport header (present only on the first fragment, as on the
wire) and application payload metadata.  Sizes are tracked exactly so
that serialization delay, queue occupancy, and the capture traces all
agree with what Ethereal would have shown: a full-size fragment is a
1514-byte wire frame.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

from repro import units
from repro.errors import PacketError
from repro.netsim.headers import (
    IPv4Header,
    IcmpHeader,
    IpProtocol,
    PayloadMeta,
    TcpHeader,
    UdpHeader,
)

_packet_ids = itertools.count(1)

TransportHeader = Union[UdpHeader, TcpHeader, IcmpHeader]


@dataclass
class Packet:
    """One IP packet in flight.

    Attributes:
        ip: the IPv4 header (addresses, sizes, fragmentation fields).
        ttl: the IP time to live, which drives tracert.  It is the one
            header value a router rewrites, so it lives on the packet:
            each router lowers it on the packet it received and sends
            that same packet on, and the sender's ``ip`` header is never
            copied.
        transport: UDP/TCP/ICMP header; ``None`` on trailing fragments,
            which carry only raw IP payload, exactly as on the wire.
        payload: application metadata describing the carried bytes.
        uid: globally unique packet id (diagnostics and capture joins).
            A packet is one object from sender to receiver, so it keeps
            one uid end to end: the rows two sniffers capture of it
            join on ``uid``.
        datagram_id: id shared by all fragments of one IP datagram.
        span: provenance span context set by the sender's IP layer when
            a :class:`~repro.telemetry.spans.SpanRecorder` is installed;
            ``None`` otherwise (and on all non-traced traffic).
        ip_bytes: size of the IP packet (header + payload).
        wire_bytes: size on an Ethernet wire, as a sniffer reports it.
        is_fragment, is_trailing_fragment: the header's classification
            (:attr:`IPv4Header.is_fragment` and ``is_trailing_fragment``).

    The sizes and the two classifications are plain attributes, not
    fields: ``__post_init__`` computes them once from ``ip``, so every
    hop that queues, serializes, counts or reassembles the packet reads
    them without a call.  They are fixed at construction, so a packet
    with a different ``ip`` header must be built anew (the constructor
    or ``dataclasses.replace``), never made by assigning ``ip``.  A
    router's TTL change keeps them, since it keeps the header.  ``ttl``
    is a field, not such an attribute, because it changes in flight:
    ``dataclasses.replace``, copies, pickles and ``==`` all carry the
    current value.
    """

    ip: IPv4Header
    ttl: int = 128
    transport: Optional[TransportHeader] = None
    payload: PayloadMeta = field(default_factory=PayloadMeta)
    uid: int = field(default_factory=lambda: next(_packet_ids))
    datagram_id: int = 0
    span: Optional[object] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        ip = self.ip
        total_length = ip.total_length
        if total_length < ip.header_bytes:
            raise PacketError(
                f"IP total_length {total_length} smaller than header")
        trailing = ip.is_trailing_fragment
        if trailing and self.transport is not None:
            raise PacketError("trailing fragments must not carry a "
                              "transport header")
        self.ip_bytes: int = total_length
        self.wire_bytes: int = units.wire_frame_bytes(total_length)
        self.is_fragment: bool = ip.is_fragment
        self.is_trailing_fragment: bool = trailing

    @property
    def protocol(self) -> IpProtocol:
        return self.ip.protocol

    def __repr__(self) -> str:
        frag = ""
        if self.is_fragment:
            frag = (f" frag(off={self.ip.fragment_offset * 8}"
                    f"{'+' if self.ip.more_fragments else '$'})")
        return (f"<Packet #{self.uid} {self.ip.src}->{self.ip.dst} "
                f"{self.protocol.name} {self.ip_bytes}B{frag}>")
