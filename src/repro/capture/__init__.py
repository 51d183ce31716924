"""Packet capture: the reproduction's Ethereal.

The paper captured all client traffic with Ethereal 0.8.20 and derived
its network-layer analysis from the traces.  This package provides the
same workflow: a :class:`Sniffer` taps a host, produces a
:class:`Trace` of :class:`PacketRecord` rows, which can be filtered
with a Wireshark-like display-filter language, grouped into fragment
trains, and written to (or read from) genuine libpcap files.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".filters": ("compile_filter",),
    ".hierarchy": ("protocol_hierarchy", "render_hierarchy"),
    ".pcap": ("read_pcap", "write_pcap"),
    ".reassembly": ("FragmentGroup", "group_datagrams"),
    ".serialize": ("read_csv", "write_csv"),
    ".sniffer": ("Sniffer",),
    ".trace": ("PacketRecord", "Trace"),
})
