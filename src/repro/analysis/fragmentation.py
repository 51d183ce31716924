"""Fragmentation-versus-rate analysis (Figure 5).

Each point of Figure 5 is one MediaPlayer clip: its encoded rate on the
x-axis and the share of its captured packets that are IP fragments on
the y-axis.  :func:`fragmentation_sweep_point` computes one point from
a flow trace; the Figure 5 experiment collects them across all clips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro import units
from repro.capture.reassembly import (
    fragmentation_percent,
    group_datagrams,
)
from repro.capture.trace import Trace
from repro.errors import AnalysisError


@dataclass(frozen=True)
class FragmentationPoint:
    """One clip's fragmentation measurement."""

    encoded_kbps: float
    fragment_percent: float
    packets: int
    groups: int
    typical_group_size: int

    @property
    def fragments_per_group(self) -> int:
        return max(0, self.typical_group_size - 1)


def fragmentation_sweep_point(trace: Trace,
                              encoded_kbps: float) -> FragmentationPoint:
    """Measure one clip's fragmentation from its (media-flow) trace.

    Raises:
        AnalysisError: for an empty trace.
    """
    if len(trace) == 0:
        raise AnalysisError("empty trace for fragmentation analysis")
    groups = group_datagrams(trace)
    sizes = sorted(group.packet_count for group in groups)
    typical = sizes[len(sizes) // 2]  # median group size
    return FragmentationPoint(
        encoded_kbps=encoded_kbps,
        fragment_percent=fragmentation_percent(trace),
        packets=len(trace),
        groups=len(groups),
        typical_group_size=typical)


def expected_fragment_percent(adu_bytes: int) -> float:
    """The analytic fragment share for a given ADU size.

    One datagram of ``adu_bytes`` (+8 UDP header) leaves as n packets
    (:func:`repro.units.fragment_payloads`); Ethereal counts n-1 of
    them as "IP fragments", so the share is (n-1)/n.  Used by tests to
    cross-check measurements.
    """
    if adu_bytes <= 0:
        raise AnalysisError("ADU size must be positive")
    count = len(units.fragment_payloads(adu_bytes + units.UDP_HEADER_BYTES))
    return 100.0 * (count - 1) / count
