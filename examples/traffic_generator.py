#!/usr/bin/env python3
"""Section IV in practice: generate realistic streaming traffic.

"Network researchers should be able to use the results to produce more
realistic video traffic for popular simulators, such as NS."  This
example plays that downstream researcher: it samples network conditions
from Figures 1-2, generates MediaPlayer-like and RealPlayer-like flows
from the Section IV models, verifies their turbulence signatures, and
exports one of them as a pcap file any tool can open.

Run:
    python examples/traffic_generator.py [output.pcap]
"""

import random
import sys

from repro.analysis.report import format_table
from repro.capture.pcap import write_pcap
from repro.core.fitting import fit_schedule
from repro.core.generator import generate_flow
from repro.core.models import sample_hop_count, sample_rtt
from repro.core.turbulence import TurbulenceProfile
from repro.media.clip import PlayerFamily


def main(output_path: str = "synthetic_wmp_300k.pcap") -> None:
    rng = random.Random(2002)
    print("sampled network conditions for 5 simulated placements:")
    for index in range(5):
        rtt = sample_rtt(rng)
        hops = sample_hop_count(rng)
        print(f"  placement {index + 1}: rtt={rtt * 1000:.0f} ms, "
              f"hops={hops}")

    scenarios = [
        (PlayerFamily.WMP, 49.8, 60.0),
        (PlayerFamily.WMP, 307.2, 60.0),
        (PlayerFamily.WMP, 731.3, 60.0),
        (PlayerFamily.REAL, 36.0, 120.0),
        (PlayerFamily.REAL, 284.0, 120.0),
        (PlayerFamily.REAL, 636.9, 120.0),
    ]
    rows = []
    exported = None
    for family, kbps, duration in scenarios:
        flow = generate_flow(family, kbps, duration, seed=7)
        profile = fit_schedule(flow, f"{family.value} {kbps:.0f}K").profile
        rows.append(profile.summary_row())
        if family == PlayerFamily.WMP and kbps > 300 and exported is None:
            exported = flow

    print()
    print("generated-flow turbulence (compare with the paper's "
          "measured signatures):")
    print(format_table(TurbulenceProfile.SUMMARY_HEADERS, rows))

    count = write_pcap(exported.to_trace(), output_path)
    print(f"\nwrote {count} packets of the 307.2 Kbps MediaPlayer flow "
          f"to {output_path} (valid libpcap; open it in any analyzer)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "synthetic_wmp_300k.pcap")
