#!/usr/bin/env python3
"""Ethereal-style capture analysis: filters, fragment trains, pcap I/O.

Streams a high-rate MediaPlayer clip, then walks through the capture
workflow the paper's Section III relies on: display filters to isolate
flows, fragment-train grouping (Figure 4's packet groups), the
first-of-group interarrival reduction (Figure 9), and a pcap round
trip.

Run:
    python examples/capture_analysis.py
"""

import io
import statistics

from repro.analysis import coefficient_of_variation
from repro.analysis.interarrival import (
    first_of_group_interarrivals,
    trace_interarrivals,
)
from repro.capture.pcap import read_pcap, write_pcap
from repro.capture.reassembly import group_datagrams
from repro.capture.sniffer import Sniffer
from repro.media.clip import Clip, ClipEncoding, PlayerFamily
from repro.netsim.engine import Simulator
from repro.netsim.topology import build_path_topology
from repro.players.mediatracker import MediaTracker
from repro.servers.wms import WindowsMediaServer


def main() -> None:
    sim = Simulator(seed=7)
    path = build_path_topology(sim, hop_count=17, rtt=0.040)
    server = WindowsMediaServer(path.server)
    server.add_clip(Clip(
        title="news-m", genre="News", duration=30.0,
        encoding=ClipEncoding(family=PlayerFamily.WMP,
                              encoded_kbps=307.2, advertised_kbps=300.0)))

    sniffer = Sniffer(path.client).start()
    player = MediaTracker(path.client, path.server.address)
    player.play("news-m")
    sim.run(until=120.0)
    trace = sniffer.stop()
    print(f"captured {len(trace)} packets "
          f"({trace.total_wire_bytes / 1024:.0f} KiB on the wire)")

    # Display filters, as in Ethereal.
    for expression in ("udp && !ip.frag", "ip.frag.trailing",
                       "frame.len == 1514", "tcp && tcp.port == 554"):
        matched = trace.display_filter(expression)
        print(f"  filter {expression!r}: {len(matched)} packets")

    # Fragment trains (Figure 4's groups).
    media = trace.udp().flow(path.server.address).filter(
        lambda r: r.payload_kind == "media")
    groups = group_datagrams(media)
    sizes = [g.packet_count for g in groups]
    print(f"fragment trains: {len(groups)} groups, "
          f"typical size {statistics.median(sizes):.0f} "
          "(1 UDP packet + IP fragments)")

    # Interarrival denoising (Figure 9's reduction).
    raw_cv = coefficient_of_variation(trace_interarrivals(media))
    grouped_cv = coefficient_of_variation(
        first_of_group_interarrivals(media))
    print(f"interarrival CV: raw={raw_cv:.2f} -> first-of-group="
          f"{grouped_cv:.2f} (fragment noise removed)")

    # pcap round trip.
    buffer = io.BytesIO()
    write_pcap(media, buffer)
    buffer.seek(0)
    reloaded = read_pcap(buffer, local_address=path.client.address)
    print(f"pcap round trip: {len(reloaded)} packets, "
          f"first frame {reloaded[0].wire_bytes} wire bytes "
          f"({reloaded[0].protocol})")


if __name__ == "__main__":
    main()
