"""Turbulence profiles: the paper's flow characterization as a value.

"In a network, the size and distribution of packets over time is
important, hence our word *turbulence*" (paper, footnote 1).  A
:class:`TurbulenceProfile` captures exactly that for one flow: size and
interarrival distributions with their variation coefficients, the
fragmentation signature, and the buffering burst — enough to classify a
flow as MediaPlayer-like CBR or RealPlayer-like VBR, and enough to
parameterize a Section IV generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import AnalysisError

#: Coefficient-of-variation ceiling below which a flow reads as CBR.
#: MediaPlayer flows in the paper are near 0 on both axes; RealPlayer
#: flows are far above on both.
CBR_CV_THRESHOLD = 0.20


@dataclass(frozen=True)
class TurbulenceProfile:
    """The network-layer fingerprint of one streaming flow."""

    label: str
    encoded_kbps: float
    #: Wire-level packet sizes (bytes).
    mean_packet_bytes: float
    packet_size_cv: float
    packet_size_pdf: Tuple[Tuple[float, float], ...]
    #: Datagram-group (ADU) total sizes.  For fragmented CBR traffic
    #: the per-packet sizes are bimodal (full frames + a short tail)
    #: while the ADUs are constant, so CBR-ness is judged here.
    adu_size_cv: float
    #: Datagram-group interarrivals (seconds), fragment noise removed.
    mean_interarrival: float
    interarrival_cv: float
    interarrival_pdf: Tuple[Tuple[float, float], ...]
    #: IP fragmentation signature.
    fragment_percent: float
    typical_group_size: int
    #: Buffering-phase signature (ratio 1.0 = no burst).
    burst_ratio: float = 1.0
    burst_duration: float = 0.0

    def __post_init__(self) -> None:
        if self.encoded_kbps <= 0:
            raise AnalysisError("profile needs a positive encoding rate")
        if self.mean_packet_bytes <= 0:
            raise AnalysisError("profile needs a positive mean packet size")
        if self.mean_interarrival <= 0:
            raise AnalysisError("profile needs a positive mean interarrival")

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    @property
    def is_cbr(self) -> bool:
        """True when ADU sizes and gaps are near-constant (WMP-like)."""
        return (self.adu_size_cv < CBR_CV_THRESHOLD
                and self.interarrival_cv < CBR_CV_THRESHOLD)

    @property
    def fragments(self) -> bool:
        return self.fragment_percent > 0.0

    @property
    def bursts(self) -> bool:
        return self.burst_ratio > 1.25

    def classify(self) -> str:
        """A coarse product guess from the turbulence alone.

        The paper's separation is stark enough that fragmentation or
        the (CBR, burst) pair identifies the product: MediaPlayer
        fragments and is CBR with no burst; RealPlayer never fragments,
        varies on both axes, and bursts.
        """
        if self.fragments:
            return "mediaplayer"
        if self.is_cbr and not self.bursts:
            return "mediaplayer"
        return "realplayer"

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def summary_row(self) -> List[object]:
        """One row for profile comparison tables."""
        return [self.label, f"{self.encoded_kbps:.0f}",
                f"{self.mean_packet_bytes:.0f}",
                f"{self.packet_size_cv:.2f}",
                f"{self.mean_interarrival * 1000:.1f}",
                f"{self.interarrival_cv:.2f}",
                f"{self.fragment_percent:.0f}%",
                f"{self.burst_ratio:.2f}",
                self.classify()]

    SUMMARY_HEADERS = ("flow", "kbps", "pkt B", "size cv", "gap ms",
                       "gap cv", "frag", "burst", "classified")
