"""ICMP: echo (ping) and time-exceeded (tracert).

The paper verified network conditions with ``ping`` and ``tracert``
before and after every run and derives Figures 1 and 2 from them, so
the reproduction needs a working ICMP path.  Routers answer echoes
addressed to them and emit time-exceeded when a TTL dies; hosts run a
small echo client/server in :class:`IcmpLayer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro import units
from repro.netsim.addressing import IPAddress
from repro.netsim.headers import IPv4Header, IcmpHeader, IpProtocol, PayloadMeta
from repro.netsim.ip import Datagram
from repro.netsim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.node import Host, Node


class IcmpType(IntEnum):
    """The ICMP message types the simulator speaks."""

    ECHO_REPLY = 0
    ECHO_REQUEST = 8
    TIME_EXCEEDED = 11


@dataclass
class EchoResult:
    """Outcome of one echo exchange, given to the ping callback."""

    responder: IPAddress
    identifier: int
    sequence: int
    rtt: float
    time_exceeded: bool = False


#: Default payload of a Windows ping (32 data bytes).
ECHO_PAYLOAD_BYTES = 32


def _icmp_packet(src: IPAddress, dst: IPAddress, header: IcmpHeader,
                 payload_bytes: int, ttl: int,
                 meta: Optional[PayloadMeta] = None) -> Packet:
    total = units.IPV4_HEADER_BYTES + units.ICMP_HEADER_BYTES + payload_bytes
    ip_header = IPv4Header(src=src, dst=dst, protocol=IpProtocol.ICMP,
                           total_length=total)
    return Packet(ip=ip_header, ttl=ttl, transport=header,
                  payload=meta or PayloadMeta(kind="icmp"))


def answer_echo(node: "Node", request: Packet) -> None:
    """Router-side echo responder (hosts use :class:`IcmpLayer`)."""
    header = request.transport
    if not isinstance(header, IcmpHeader):
        return
    if header.icmp_type != IcmpType.ECHO_REQUEST:
        return
    reply_header = IcmpHeader(icmp_type=IcmpType.ECHO_REPLY,
                              identifier=header.identifier,
                              sequence=header.sequence)
    payload_bytes = request.ip.payload_bytes - units.ICMP_HEADER_BYTES
    reply = _icmp_packet(node.address, request.ip.src, reply_header,
                         payload_bytes, ttl=128, meta=request.payload)
    node.send_packet(reply)


def send_time_exceeded(node: "Node", expired: Packet) -> None:
    """Emit ICMP time-exceeded back to the source of ``expired``.

    The message quotes the original ICMP identifier/sequence (when the
    expired packet was itself an echo request) so a traceroute client
    can match replies to probes, mirroring how real tracert parses the
    quoted header.
    """
    identifier = sequence = 0
    original = expired.transport
    if isinstance(original, IcmpHeader):
        identifier = original.identifier
        sequence = original.sequence
    header = IcmpHeader(icmp_type=IcmpType.TIME_EXCEEDED,
                        identifier=identifier, sequence=sequence)
    # Time-exceeded carries the quoted IP header + 8 bytes of payload.
    message = _icmp_packet(node.address, expired.ip.src, header,
                           units.IPV4_HEADER_BYTES + 8, ttl=128,
                           meta=PayloadMeta(kind="icmp-time-exceeded"))
    node.send_packet(message)


EchoCallback = Callable[[EchoResult], None]


class IcmpLayer:
    """Host-side ICMP: answers echoes, runs echo probes with callbacks."""

    def __init__(self, host: "Host") -> None:
        self.host = host
        self._next_identifier = 1
        self._pending: Dict[Tuple[int, int], Tuple[float, EchoCallback]] = {}
        host.ip.register_handler(IpProtocol.ICMP, self._on_datagram)

    def send_echo(self, dst: IPAddress, callback: EchoCallback,
                  sequence: int = 1, ttl: int = 128,
                  payload_bytes: int = ECHO_PAYLOAD_BYTES) -> int:
        """Send an echo request; ``callback`` fires on any response.

        Returns the identifier assigned to the probe, which keys the
        pending-table entry (useful for tests and timeout handling).
        """
        identifier = self._next_identifier
        self._next_identifier += 1
        header = IcmpHeader(icmp_type=IcmpType.ECHO_REQUEST,
                            identifier=identifier, sequence=sequence)
        self._pending[(identifier, sequence)] = (self.host.sim.now, callback)
        self.host.ip.send(dst, IpProtocol.ICMP, header,
                          units.ICMP_HEADER_BYTES, payload_bytes,
                          payload=PayloadMeta(kind="icmp-echo"), ttl=ttl)
        return identifier

    def cancel(self, identifier: int, sequence: int) -> bool:
        """Drop a pending probe (timeout); True if it was outstanding."""
        return self._pending.pop((identifier, sequence), None) is not None

    def _on_datagram(self, datagram: Datagram) -> None:
        header = datagram.transport
        if not isinstance(header, IcmpHeader):
            return
        if header.icmp_type == IcmpType.ECHO_REQUEST:
            reply_header = IcmpHeader(icmp_type=IcmpType.ECHO_REPLY,
                                      identifier=header.identifier,
                                      sequence=header.sequence)
            self.host.ip.send(datagram.src, IpProtocol.ICMP, reply_header,
                              units.ICMP_HEADER_BYTES,
                              datagram.transport_payload_bytes,
                              payload=PayloadMeta(kind="icmp-echo-reply"))
            return
        if header.icmp_type in (IcmpType.ECHO_REPLY, IcmpType.TIME_EXCEEDED):
            key = (header.identifier, header.sequence)
            pending = self._pending.pop(key, None)
            if pending is None:
                return
            sent_at, callback = pending
            callback(EchoResult(
                responder=datagram.src, identifier=header.identifier,
                sequence=header.sequence, rtt=self.host.sim.now - sent_at,
                time_exceeded=(header.icmp_type == IcmpType.TIME_EXCEEDED)))
