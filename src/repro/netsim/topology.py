"""Topology builder: a WPI-like client behind a multi-hop Internet path.

The paper's setup is one client PC on the WPI campus network reaching
co-located media servers 15–20 router hops away with a median RTT of
40 ms (Figures 1–2).  :func:`build_path_topology` reproduces that shape:

    client --10Mbps-- R1 -- R2 -- ... -- Rn --100Mbps-- {server0, server1}

Both servers sit on the same destination subnet, satisfying the
clip-selection rule of Section II.C (same subnet, same network path),
so a simultaneous RealPlayer + MediaPlayer experiment shares one path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro import units
from repro.netsim.addressing import AddressAllocator, IPAddress, Subnet
from repro.netsim.engine import Simulator
from repro.netsim.link import Link, LossModel
from repro.netsim.node import Host, Router

#: The client campus subnet (WPI's real 2002 prefix, for flavor).
CLIENT_SUBNET = Subnet.parse("130.215.0.0/16")

#: The co-located server farm subnet.
SERVER_SUBNET = Subnet.parse("64.14.118.0/24")

#: Backbone router addresses.
BACKBONE_SUBNET = Subnet.parse("10.1.0.0/16")


@dataclass
class PathTopology:
    """The built network, with handles the experiments need."""

    sim: Simulator
    client: Host
    servers: List[Host]
    routers: List[Router]
    links: List[Link]
    client_subnet: Subnet = CLIENT_SUBNET
    server_subnet: Subnet = SERVER_SUBNET
    nominal_rtt: float = 0.040
    hop_count: int = 17

    @property
    def server(self) -> Host:
        """The first server (convenience for single-server scenarios)."""
        return self.servers[0]


def _check_rtt(rtt: float) -> None:
    """Refuse an rtt that is not positive and finite (NaN passes a
    plain ``<= 0`` test and would reach the event loop as a time)."""
    if not (math.isfinite(rtt) and rtt > 0):
        raise ValueError(f"rtt must be positive and finite, got {rtt}")


def build_path_topology(sim: Simulator, hop_count: int = 17,
                        rtt: float = 0.040, server_count: int = 2,
                        access_bandwidth_bps: float = units.mbps(10),
                        backbone_bandwidth_bps: float = units.mbps(100),
                        bottleneck_bps: Optional[float] = None,
                        loss_probability: float = 0.0,
                        jitter_std: float = 0.0004) -> PathTopology:
    """Build a linear client↔servers path.

    Args:
        hop_count: tracert-style hop count to the servers (routers on
            the path plus the destination itself); must be >= 2.
        rtt: target round-trip time client↔server in seconds; the
            propagation budget is spread evenly over the path links.
        server_count: number of co-located server hosts on the
            destination subnet (the paper streams from two at once).
        access_bandwidth_bps: client access link (paper: 10 Mbps NIC).
        backbone_bandwidth_bps: all other links.
        bottleneck_bps: if given, the middle link is throttled to this
            rate (for the congestion-study extension).
        loss_probability: independent loss on the middle link.
        jitter_std: std-dev (seconds) of Gaussian per-packet extra
            delay on the middle link; models light cross-traffic.

    Returns:
        A :class:`PathTopology`.

    Raises:
        ValueError: for a count out of range, an rtt that is not
            positive and finite, or a NaN or infinite ``jitter_std``
            (the links refuse such rates and delays themselves).
    """
    if hop_count < 2:
        raise ValueError("hop_count must be at least 2")
    if server_count < 1:
        raise ValueError("need at least one server")
    _check_rtt(rtt)
    if not math.isfinite(jitter_std):
        raise ValueError(f"jitter_std must be finite, got {jitter_std}")

    router_count = hop_count - 1
    client_alloc = AddressAllocator(CLIENT_SUBNET)
    server_alloc = AddressAllocator(SERVER_SUBNET)
    backbone_alloc = AddressAllocator(BACKBONE_SUBNET)

    client = Host(sim, "client", client_alloc.allocate())
    routers = [Router(sim, f"r{i + 1}", backbone_alloc.allocate())
               for i in range(router_count)]
    servers = [Host(sim, f"server{i}", server_alloc.allocate())
               for i in range(server_count)]

    # Split the one-way propagation budget evenly over the path links
    # (client->r1, r1->r2, ..., rN->server).
    path_link_count = router_count + 1
    per_link_delay = (rtt / 2.0) / path_link_count

    loss_rng = sim.streams.stream("link-loss")
    jitter_rng = sim.streams.stream("link-jitter")

    def make_jitter(std: float) -> Optional[Callable[[], float]]:
        if std <= 0:
            return None
        return lambda: jitter_rng.gauss(0.0, std)

    links: List[Link] = []
    middle_index = path_link_count // 2
    chain: List = [client] + routers
    for index in range(len(chain) - 1):
        is_middle = index == middle_index
        bandwidth = access_bandwidth_bps if index == 0 else backbone_bandwidth_bps
        if is_middle and bottleneck_bps is not None:
            bandwidth = bottleneck_bps
        links.append(Link(
            sim, chain[index], chain[index + 1],
            bandwidth_bps=bandwidth,
            propagation_delay=per_link_delay,
            loss=LossModel(loss_probability if is_middle else 0.0, loss_rng),
            jitter=make_jitter(jitter_std if is_middle else 0.0)))

    last_hop = routers[-1]
    for server in servers:
        bandwidth = backbone_bandwidth_bps
        if router_count == 0 and bottleneck_bps is not None:
            bandwidth = bottleneck_bps
        links.append(Link(sim, last_hop, server,
                          bandwidth_bps=bandwidth,
                          propagation_delay=per_link_delay))

    # Routing: everything at the client heads to r1; each router
    # forwards toward the servers by default and knows the way back to
    # the campus subnet; servers default to the last router.
    client.routing.set_default(routers[0])
    for index, router in enumerate(routers):
        if index + 1 < len(routers):
            router.routing.set_default(routers[index + 1])
        else:
            for server in servers:
                router.routing.add_route(
                    Subnet(server.address, 32), server)
            # Unroutable destinations past the last hop die here.
        back = client if index == 0 else routers[index - 1]
        router.routing.add_route(CLIENT_SUBNET, back)
        if index + 1 < len(routers):
            # The server subnet lives past the default route already.
            pass
    for server in servers:
        server.routing.set_default(last_hop)

    # Backbone addresses need forward routing too, so the client can
    # probe mid-path routers directly (ping of a hop): each router
    # knows the /32 of every later router via its next hop.
    for index, router in enumerate(routers[:-1]):
        for later in routers[index + 1:]:
            router.routing.add_route(Subnet(later.address, 32),
                                     routers[index + 1])

    return PathTopology(sim=sim, client=client, servers=servers,
                        routers=routers, links=links, nominal_rtt=rtt,
                        hop_count=hop_count)


@dataclass
class CampusTopology:
    """A campus of clients behind one egress router (future work §VI:
    "examine traces at an Internet boundary, such as the egress to our
    University, or at least at several players")."""

    sim: Simulator
    clients: List[Host]
    egress: Router
    servers: List[Host]
    routers: List[Router]
    links: List[Link]
    nominal_rtt: float = 0.040


def build_campus_topology(sim: Simulator, client_count: int = 4,
                          hop_count: int = 17, rtt: float = 0.040,
                          server_count: int = 2,
                          access_bandwidth_bps: float = units.mbps(10),
                          egress_bandwidth_bps: float = units.mbps(45),
                          backbone_bandwidth_bps: float = units.mbps(100),
                          ) -> CampusTopology:
    """Build several campus clients sharing one egress to the servers.

        client0 ┐
        client1 ┼── egress ── R1 ── ... ── Rn ── {servers}
        client2 ┘   (45 Mbps T3 uplink by default)

    The egress router is the natural capture point for the paper's
    proposed boundary study: tapping it sees every client's media flow
    at once.

    Raises:
        ValueError: for nonpositive counts, or an rtt that is not
            positive and finite.
    """
    if client_count < 1:
        raise ValueError("need at least one client")
    if hop_count < 2:
        raise ValueError("hop_count must be at least 2")
    _check_rtt(rtt)

    client_alloc = AddressAllocator(CLIENT_SUBNET)
    server_alloc = AddressAllocator(SERVER_SUBNET)
    backbone_alloc = AddressAllocator(BACKBONE_SUBNET)

    clients = [Host(sim, f"client{i}", client_alloc.allocate())
               for i in range(client_count)]
    egress = Router(sim, "egress", client_alloc.allocate())
    router_count = max(1, hop_count - 2)  # egress counts as one hop
    routers = [Router(sim, f"r{i + 1}", backbone_alloc.allocate())
               for i in range(router_count)]
    servers = [Host(sim, f"server{i}", server_alloc.allocate())
               for i in range(server_count)]

    path_link_count = router_count + 1
    per_link_delay = (rtt / 2.0) / (path_link_count + 1)

    links: List[Link] = []
    for client in clients:
        links.append(Link(sim, client, egress,
                          bandwidth_bps=access_bandwidth_bps,
                          propagation_delay=per_link_delay))
        client.routing.set_default(egress)
        egress.routing.add_route(Subnet(client.address, 32), client)

    chain: List = [egress] + routers
    for index in range(len(chain) - 1):
        bandwidth = (egress_bandwidth_bps if index == 0
                     else backbone_bandwidth_bps)
        links.append(Link(sim, chain[index], chain[index + 1],
                          bandwidth_bps=bandwidth,
                          propagation_delay=per_link_delay))

    last_hop = routers[-1]
    for server in servers:
        links.append(Link(sim, last_hop, server,
                          bandwidth_bps=backbone_bandwidth_bps,
                          propagation_delay=per_link_delay))
        server.routing.set_default(last_hop)

    egress.routing.set_default(routers[0])
    for index, router in enumerate(routers):
        if index + 1 < len(routers):
            router.routing.set_default(routers[index + 1])
        else:
            for server in servers:
                router.routing.add_route(Subnet(server.address, 32),
                                         server)
        back = egress if index == 0 else routers[index - 1]
        router.routing.add_route(CLIENT_SUBNET, back)

    return CampusTopology(sim=sim, clients=clients, egress=egress,
                          servers=servers, routers=routers, links=links,
                          nominal_rtt=rtt)
