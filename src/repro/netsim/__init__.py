"""Discrete-event network simulation substrate.

This package implements the network the paper measured over: multi-hop
IP paths between a streaming server and a client, with real link
serialization, propagation delay, queueing, IP fragmentation and
reassembly, UDP and ICMP, and a minimal reliable TCP channel for
control traffic.

Typical use::

    from repro.netsim import Simulator, build_path_topology

    sim = Simulator(seed=7)
    topo = build_path_topology(sim, hop_count=17, rtt=0.040)
    sock = topo.server.udp.bind(5005)
    ...
    sim.run(until=120.0)
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".addressing": ("IPAddress", "Subnet"),
    ".engine": ("Simulator",),
    ".headers": ("IPv4Header", "IcmpHeader", "TcpHeader", "UdpHeader"),
    ".icmp": ("IcmpType",),
    ".ip": ("IpLayer", "ReassemblyBuffer"),
    ".link": ("Link", "LossModel"),
    ".node": ("Host", "Node", "Router"),
    ".packet": ("Packet",),
    ".queues": ("DropTailQueue",),
    ".rng": ("RandomStreams",),
    ".topology": ("PathTopology", "build_path_topology"),
    ".udp": ("UdpDatagram", "UdpSocket"),
})
