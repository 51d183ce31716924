"""Host IP layer: identification, fragmentation, and reassembly.

This is the mechanism behind the paper's headline network-layer
finding: Windows Media servers hand the OS application data units
larger than the path MTU, and the sender's IP layer slices them into a
first fragment carrying the UDP header plus trailing pure-IP fragments
— the "groups of packets" of Figure 4 and the fragment percentages of
Figure 5.  The receiving host reassembles; if any fragment is lost the
whole datagram is eventually discarded (the goodput-degradation hazard
the paper discusses via [FF99]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro import units
from repro.errors import PacketError
from repro.netsim.addressing import IPAddress
from repro.netsim.headers import (
    IPv4Header,
    IpProtocol,
    PayloadMeta,
)
from repro.netsim.packet import Packet
from repro.telemetry.events import FRAGMENT_EMITTED, REASSEMBLY_TIMEOUT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.node import Host

#: RFC 4963 suggests 30s-ish reassembly timers; Windows 2000 used 60s.
REASSEMBLY_TIMEOUT_SECONDS = 30.0


@dataclass
class Datagram:
    """A fully-reassembled transport datagram delivered upward.

    Attributes:
        transport_payload_bytes: bytes carried after the transport
            header (for UDP this is the application data unit size).
        fragment_count: how many IP packets the datagram arrived in
            (1 for unfragmented traffic).
        first_packet_time / last_packet_time: arrival times of the
            first and final fragment, letting players measure how long
            a fragment train took to land.
    """

    src: IPAddress
    dst: IPAddress
    protocol: IpProtocol
    transport: object
    payload: PayloadMeta
    transport_payload_bytes: int
    fragment_count: int
    first_packet_time: float
    last_packet_time: float


@dataclass
class IpStats:
    """Counters for one host's IP layer."""

    datagrams_sent: int = 0
    packets_sent: int = 0
    fragments_sent: int = 0
    datagrams_delivered: int = 0
    packets_received: int = 0
    fragments_received: int = 0
    reassembly_timeouts: int = 0
    wasted_fragment_bytes: int = 0


class ReassemblyBuffer:
    """Collects the fragments of one IP datagram until complete."""

    def __init__(self, first_seen: float) -> None:
        self.first_seen = first_seen
        self.last_seen = first_seen
        self.fragments: List[Packet] = []
        self._have_offsets: set = set()
        self._first: Optional[Packet] = None  # the offset-0 fragment
        self.total_payload: Optional[int] = None
        self._received_payload = 0
        #: Open reassembly span when span tracing is on.
        self.span = None

    def add(self, packet: Packet, now: float) -> None:
        """Record one fragment.

        Raises:
            PacketError: on overlapping/duplicate offsets (the
                simulator never generates them, so one indicates a bug).
        """
        offset = packet.ip.fragment_offset
        if offset in self._have_offsets:
            raise PacketError(f"duplicate fragment offset {offset}")
        self._have_offsets.add(offset)
        if offset == 0:
            self._first = packet
        self.fragments.append(packet)
        self.last_seen = now
        payload = packet.ip.payload_bytes
        self._received_payload += payload
        if not packet.ip.more_fragments:
            self.total_payload = offset * 8 + payload

    @property
    def complete(self) -> bool:
        return (self.total_payload is not None
                and self._received_payload >= self.total_payload
                and self._first is not None)

    @property
    def received_bytes(self) -> int:
        return sum(p.ip_bytes for p in self.fragments)

    def first_fragment(self) -> Packet:
        if self._first is None:
            raise PacketError("reassembly buffer has no first fragment")
        return self._first


class IpLayer:
    """Send/receive IP datagrams for one host, fragmenting to the MTU."""

    def __init__(self, host: "Host", mtu: Optional[int] = None) -> None:
        self.host = host
        self.mtu = int(mtu) if mtu else units.DEFAULT_MTU_BYTES
        if self.mtu <= units.IPV4_HEADER_BYTES + 8:
            raise ValueError(f"MTU {self.mtu} too small to carry data")
        self.stats = IpStats()
        self.misrouted = 0
        self._telemetry = host.sim.telemetry
        # Span recorder handle, cached with the same discipline as the
        # rest of the facade: one None check per packet when disabled.
        self._spans = (self._telemetry.spans
                       if self._telemetry is not None else None)
        if self._telemetry is not None:
            registry = self._telemetry.registry
            registry.track("ip.fragments_sent", self.stats, "fragments_sent",
                           host=host.name)
            registry.track("ip.reassembly_timeouts", self.stats,
                           "reassembly_timeouts", host=host.name)
            self._hist_fragments = registry.histogram(
                "ip.fragments_per_datagram",
                bounds=(1, 2, 3, 4, 6, 8, 12, 16, 32, 64),
                host=host.name)
        self._next_ident = 1
        self._handlers: Dict[IpProtocol, Callable[[Datagram], None]] = {}
        self._buffers: Dict[Tuple[int, int, int, IpProtocol],
                            ReassemblyBuffer] = {}
        if host.sim.validator is not None:
            host.sim.validator.register_ip(self)

    # ------------------------------------------------------------------
    # Upward interface
    # ------------------------------------------------------------------
    def register_handler(self, protocol: IpProtocol,
                         handler: Callable[[Datagram], None]) -> None:
        """Route delivered datagrams of ``protocol`` to ``handler``."""
        self._handlers[protocol] = handler

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, dst: IPAddress, protocol: IpProtocol, transport: object,
             transport_header_bytes: int, transport_payload_bytes: int,
             payload: Optional[PayloadMeta] = None, ttl: int = 128) -> List[Packet]:
        """Send one transport datagram, fragmenting if necessary.

        Args:
            transport: the transport header object (on the first
                fragment only, as on the wire).
            transport_header_bytes: its wire size in bytes.
            transport_payload_bytes: application bytes after it.

        Returns:
            The list of IP packets emitted (length 1 when unfragmented).
        """
        if transport_payload_bytes < 0:
            raise PacketError("negative transport payload size")
        payload = payload or PayloadMeta()
        ip_payload = transport_header_bytes + transport_payload_bytes
        sizes = units.fragment_payloads(ip_payload, self.mtu)
        ident = self._next_ident
        self._next_ident += 1
        self.stats.datagrams_sent += 1

        if len(sizes) == 1:
            header = IPv4Header(src=self.host.address, dst=dst,
                                protocol=protocol,
                                total_length=units.IPV4_HEADER_BYTES + ip_payload,
                                identification=ident)
            packet = Packet(ip=header, ttl=ttl, transport=transport,
                            payload=payload, datagram_id=ident)
            if self._telemetry is not None:
                self._hist_fragments.observe(1)
            if self._spans is not None and payload.span is not None:
                self._spans.packets_emitted(payload.span,
                                            self.host.sim.now, [packet])
            self._emit([packet])
            return [packet]

        last = len(sizes) - 1
        packets: List[Packet] = []
        offset_bytes = 0
        for index, this_payload in enumerate(sizes):
            header = IPv4Header(src=self.host.address, dst=dst,
                                protocol=protocol,
                                total_length=units.IPV4_HEADER_BYTES + this_payload,
                                identification=ident,
                                more_fragments=index < last,
                                fragment_offset=offset_bytes // 8)
            packets.append(Packet(ip=header, ttl=ttl,
                                  transport=transport if index == 0 else None,
                                  payload=payload, datagram_id=ident))
            offset_bytes += this_payload
        self.stats.fragments_sent += len(packets)
        if self._telemetry is not None:
            self._hist_fragments.observe(len(packets))
            self._telemetry.emit(FRAGMENT_EMITTED, host=self.host.name,
                                 datagram_id=ident,
                                 fragments=len(packets),
                                 payload_bytes=ip_payload)
        if self._spans is not None and payload.span is not None:
            self._spans.packets_emitted(payload.span, self.host.sim.now,
                                        packets)
        self._emit(packets)
        return packets

    def _emit(self, packets: List[Packet]) -> None:
        director = self.host.sim.fast_path
        if director is not None and director.try_deliver(self, packets):
            return  # delivered analytically; books already closed
        for packet in packets:
            self.stats.packets_sent += 1
            self.host.send_packet(packet)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Handle one delivered IP packet (fragment or whole datagram)."""
        self.stats.packets_received += 1
        now = self.host.sim.now
        traced = self._spans is not None and packet.span is not None
        if traced:
            self._spans.packet_arrived(packet, now)
        if not packet.is_fragment:
            self._deliver_single(packet, now)
            return

        self.stats.fragments_received += 1
        ip = packet.ip
        # Address values: an IPAddress hashes in a Python __hash__.
        key = (ip.src.value, ip.dst.value, ip.identification, ip.protocol)
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = ReassemblyBuffer(first_seen=now)
            if traced and packet.payload.span is not None:
                buffer.span = self._spans.reassembly_started(
                    packet.payload.span, now, self.host.name)
            self._buffers[key] = buffer
            self.host.sim.schedule_in(REASSEMBLY_TIMEOUT_SECONDS,
                                      self._expire, key)
        buffer.add(packet, now)
        if buffer.complete:
            del self._buffers[key]
            if buffer.span is not None:
                self._spans.reassembly_finished(buffer.span, now,
                                                len(buffer.fragments))
            self._deliver_reassembled(buffer, packet)

    def _deliver_single(self, packet: Packet, now: float) -> None:
        transport = packet.transport
        header_bytes = transport.header_bytes if transport is not None else 0
        datagram = Datagram(
            src=packet.ip.src, dst=packet.ip.dst, protocol=packet.ip.protocol,
            transport=transport, payload=packet.payload,
            transport_payload_bytes=packet.ip.payload_bytes - header_bytes,
            fragment_count=1, first_packet_time=now, last_packet_time=now)
        self._dispatch(datagram)

    def _deliver_reassembled(self, buffer: ReassemblyBuffer,
                             last: Packet) -> None:
        first = buffer.first_fragment()
        transport = first.transport
        header_bytes = transport.header_bytes if transport is not None else 0
        total_payload = buffer.total_payload or 0
        datagram = Datagram(
            src=last.ip.src, dst=last.ip.dst, protocol=last.ip.protocol,
            transport=transport, payload=first.payload,
            transport_payload_bytes=total_payload - header_bytes,
            fragment_count=len(buffer.fragments),
            first_packet_time=buffer.first_seen,
            last_packet_time=buffer.last_seen)
        self._dispatch(datagram)

    def _dispatch(self, datagram: Datagram) -> None:
        handler = self._handlers.get(datagram.protocol)
        if handler is None:
            return  # no listener; silently dropped like a real stack
        self.stats.datagrams_delivered += 1
        handler(datagram)

    def _expire(self, key: Tuple) -> None:
        buffer = self._buffers.get(key)
        if buffer is None:
            return  # completed in the meantime
        remaining = REASSEMBLY_TIMEOUT_SECONDS - (self.host.sim.now
                                          - buffer.last_seen)
        if remaining > 1e-6:
            # Saw more fragments recently; re-arm the timer.  The
            # epsilon guards against a float-underflow livelock where a
            # tiny positive `remaining` cannot advance the clock.
            self.host.sim.schedule_in(remaining, self._expire, key)
            return
        del self._buffers[key]
        self.stats.reassembly_timeouts += 1
        self.stats.wasted_fragment_bytes += buffer.received_bytes
        if buffer.span is not None:
            self._spans.reassembly_timed_out(buffer.span, self.host.sim.now,
                                             len(buffer.fragments))
        if self._telemetry is not None:
            self._telemetry.emit(REASSEMBLY_TIMEOUT, host=self.host.name,
                                 fragments_held=len(buffer.fragments),
                                 wasted_bytes=buffer.received_bytes)

    @property
    def pending_reassemblies(self) -> int:
        """Datagrams currently waiting for missing fragments."""
        return len(self._buffers)
