"""Nodes: the common base, forwarding routers, and end hosts.

A :class:`Node` owns its attachments to links and a routing table.
:class:`Router` forwards packets, decrementing TTL and answering with
ICMP time-exceeded when it hits zero — which is exactly what makes the
simulated ``tracert`` (Figure 2) work.  :class:`Host` terminates
packets: its IP layer reassembles fragments and dispatches datagrams to
the UDP/ICMP/TCP layers.

Every node supports *taps*: callbacks observing each packet the node
sends or receives, with the current simulated time.  The capture
sniffer (the Ethereal stand-in) is implemented as a tap on the client
host.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.errors import RoutingError
from repro.netsim.addressing import IPAddress
from repro.netsim.packet import Packet
from repro.netsim.routing import RoutingTable
from repro.telemetry.events import NO_ROUTE_DROP

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.engine import Simulator
    from repro.netsim.link import Link

TapCallback = Callable[[str, Packet, float], None]


class Node:
    """Base class: link attachments, routing, and packet taps."""

    def __init__(self, sim: "Simulator", name: str,
                 address: Optional[IPAddress] = None) -> None:
        self.sim = sim
        self.name = name
        self.address = address
        self.links: List["Link"] = []
        self.neighbors: Dict["Node", "Link"] = {}
        self.routing = RoutingTable()
        self.taps: List[TapCallback] = []
        #: When True, a routing miss drops the packet (counted, and
        #: emitted as a ``no_route_drop`` trace event) instead of
        #: raising.  The fault layer sets this: during re-convergence a
        #: node legitimately has no path, and a mid-run RoutingError
        #: would abort the whole simulation from inside the event loop.
        self.drop_on_no_route = False
        self.no_route_drops = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, link: "Link", peer: "Node") -> None:
        """Record a link attachment (called by Link's constructor)."""
        self.links.append(link)
        self.neighbors[peer] = link

    def add_tap(self, callback: TapCallback) -> None:
        """Observe every packet this node sends ('tx') or receives ('rx')."""
        self.taps.append(callback)

    def _notify_taps(self, direction: str, packet: Packet) -> None:
        for tap in self.taps:
            tap(direction, packet, self.sim.now)

    # ------------------------------------------------------------------
    # Packet movement
    # ------------------------------------------------------------------
    def send_packet(self, packet: Packet) -> None:
        """Route a locally-originated packet out toward its destination."""
        # The routing memo, read here: a hit then costs no lookup frame.
        next_hop = self.routing._memo.get(packet.ip.dst.value)
        if next_hop is None:
            try:
                next_hop = self.routing.lookup(packet.ip.dst)
            except RoutingError:
                if not self.drop_on_no_route:
                    raise
                self._drop_no_route(packet)
                return
        link = self.neighbors.get(next_hop)
        if link is None:
            if self.drop_on_no_route:
                self._drop_no_route(packet)
                return
            raise RoutingError(
                f"{self.name}: next hop {next_hop.name} is not a neighbor")
        if self.taps:
            self._notify_taps("tx", packet)
        link.send_from(self, packet)

    def _drop_no_route(self, packet: Packet) -> None:
        self.no_route_drops += 1
        if self.sim.telemetry is not None:
            self.sim.telemetry.emit(NO_ROUTE_DROP, node=self.name,
                                    dst=str(packet.ip.dst),
                                    packet_bytes=packet.ip_bytes)

    def handle_packet(self, packet: Packet) -> None:
        """Subclass hook: what to do with a delivered packet."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name} {self.address}>"


class Router(Node):
    """Store-and-forward router with TTL handling.

    A router lowers the TTL of the packet it received and sends that
    same packet on.  When a packet's TTL expires, the router emits an
    ICMP time-exceeded message back to the source (used by tracert) and
    leaves the expired packet as it arrived.  Routers never
    reassemble fragments — fragments are forwarded independently, as on
    the real Internet.
    """

    def __init__(self, sim: "Simulator", name: str,
                 address: Optional[IPAddress] = None) -> None:
        super().__init__(sim, name, address)
        self.forwarded = 0
        self.ttl_expired = 0

    def handle_packet(self, packet: Packet) -> None:
        # Compare the addresses' integer values, not the dataclasses:
        # this test runs once per packet per hop.
        if (self.address is not None
                and packet.ip.dst.value == self.address.value):
            # Routers terminate only ICMP aimed at themselves (ping of a
            # hop); everything else addressed to a router is dropped.
            self._handle_local(packet)
            return
        if packet.ttl <= 1:
            self.ttl_expired += 1
            self._send_time_exceeded(packet)
            return
        # In place: nothing upstream keeps a packet it has handed on (a
        # tap builds its capture row inside the call).
        self.forwarded += 1
        packet.ttl -= 1
        self.send_packet(packet)

    def _handle_local(self, packet: Packet) -> None:
        from repro.netsim import icmp  # local import: avoids a cycle

        if packet.protocol.name == "ICMP":
            icmp.answer_echo(self, packet)

    def _send_time_exceeded(self, packet: Packet) -> None:
        from repro.netsim import icmp  # local import: avoids a cycle

        if self.address is None:
            return
        icmp.send_time_exceeded(self, packet)


class Host(Node):
    """An end host with a full protocol stack.

    The stack objects are created lazily-on-construction here and
    imported locally to keep the module import graph acyclic:

    * ``host.ip``   — fragmentation/reassembly (:class:`repro.netsim.ip.IpLayer`)
    * ``host.udp``  — socket table (:class:`repro.netsim.udp.UdpLayer`)
    * ``host.icmp`` — echo client/server (:class:`repro.netsim.icmp.IcmpLayer`)
    * ``host.tcp``  — minimal reliable channels (:class:`repro.netsim.tcp.TcpLayer`)
    """

    def __init__(self, sim: "Simulator", name: str,
                 address: IPAddress, mtu: Optional[int] = None) -> None:
        super().__init__(sim, name, address)
        from repro.netsim.icmp import IcmpLayer
        from repro.netsim.ip import IpLayer
        from repro.netsim.tcp import TcpLayer
        from repro.netsim.udp import UdpLayer

        self.ip = IpLayer(self, mtu=mtu)
        self.udp = UdpLayer(self)
        self.icmp = IcmpLayer(self)
        self.tcp = TcpLayer(self)

    def handle_packet(self, packet: Packet) -> None:
        # Integer values, as in Router.handle_packet.
        if packet.ip.dst.value != self.address.value:
            # Hosts do not forward; a misrouted packet is silently
            # dropped (counted by the IP layer for diagnostics).
            self.ip.misrouted += 1
            return
        self.ip.receive(packet)
