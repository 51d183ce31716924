"""Fit a turbulence profile from a capture.

Given the media-flow trace of one clip (and optionally the tracker's
application statistics), measure every field of a
:class:`~repro.core.turbulence.TurbulenceProfile` exactly the way the
paper's Section III does: wire sizes for the packet-size distribution,
first-of-group interarrivals to remove fragment noise, trailing
fragments for the fragmentation share, and the bandwidth timeline for
the buffering ratio.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.analysis.bandwidth import bandwidth_series
from repro.analysis.buffering import (
    BURST_THRESHOLD,
    buffering_ratio_vs_playout,
)
from repro.analysis.distributions import pdf, summarize
from repro.analysis.interarrival import interarrival_times
from repro.analysis.normalize import coefficient_of_variation, summary_cv
from repro.capture.reassembly import fragmentation_percent, group_datagrams
from repro.capture.trace import Trace
from repro.core.turbulence import TurbulenceProfile
from repro.errors import AnalysisError
from repro.players.stats import PlayerStats


class FlowFit(NamedTuple):
    """A fitted profile plus the samples it was measured from."""

    profile: TurbulenceProfile
    #: Wire size of every packet, in capture order.
    sizes: List[float]
    #: First-of-group interarrivals (the Figure 9 reduction).
    gaps: List[float]


def fit_profile(trace: Trace, encoded_kbps: float, label: str = "",
                stats: Optional[PlayerStats] = None,
                pdf_bins: int = 24) -> TurbulenceProfile:
    """Measure a flow's turbulence profile (see :func:`fit_flow`)."""
    return fit_flow(trace, encoded_kbps, label, stats, pdf_bins).profile


def fit_flow(trace: Trace, encoded_kbps: float, label: str = "",
             stats: Optional[PlayerStats] = None,
             pdf_bins: int = 24) -> FlowFit:
    """Measure a flow's turbulence profile, keeping its samples.

    The trace is grouped into datagrams once; the interarrivals come
    from the groups' first times, and both CVs from the summaries the
    means come from.  Callers that also compare the raw samples (the
    Section IV KS distances) take them from here instead of measuring
    the flow a second time.

    Args:
        trace: the flow's packets (one clip, one direction).
        encoded_kbps: the clip's encoded rate (from the tracker's
            DESCRIBE log, as in the paper's Table 1).
        stats: optional tracker statistics; when given, the buffering
            burst is measured from the application bandwidth timeline
            (more faithful); otherwise from the trace.
        pdf_bins: resolution of the stored distributions.

    Raises:
        AnalysisError: when the trace is too small to characterize
            (needs at least 2 datagram groups).
    """
    if len(trace) < 4:
        raise AnalysisError("trace too small to fit a turbulence profile")

    sizes = [float(record.wire_bytes) for record in trace]
    size_summary = summarize(sizes)
    groups = group_datagrams(trace)
    gaps = interarrival_times([group.first_time for group in groups])
    if not gaps:
        raise AnalysisError("trace has fewer than two datagram groups")
    gap_summary = summarize(gaps)

    group_sizes = sorted(group.packet_count for group in groups)
    typical_group = group_sizes[len(group_sizes) // 2]
    # ADU-level size regularity; drop the clip's truncated final ADU so
    # a strictly CBR flow measures as exactly constant.
    group_bytes = [float(group.wire_bytes) for group in groups]
    if len(group_bytes) > 2:
        group_bytes = group_bytes[:-1]
    adu_size_cv = coefficient_of_variation(group_bytes)

    burst_ratio = 1.0
    burst_duration = 0.0
    series = None
    if stats is not None:
        series = stats.bandwidth_timeline(interval=1.0)
    elif trace.duration > 4.0:
        series = bandwidth_series(trace, interval=1.0)
    if series is not None and len(series) >= 4:
        # Ratio against the known playout (encoding) rate, which stays
        # well-defined even when a short clip is consumed entirely
        # within the burst (see Figure 11's definition).
        burst_ratio = max(1.0, buffering_ratio_vs_playout(series,
                                                          encoded_kbps))
        threshold = encoded_kbps * BURST_THRESHOLD
        burst_duration = 0.0
        for _, rate in series:
            if rate <= threshold:
                break
            burst_duration += 1.0

    profile = TurbulenceProfile(
        label=label or trace.description,
        encoded_kbps=encoded_kbps,
        mean_packet_bytes=size_summary.mean,
        packet_size_cv=summary_cv(size_summary),
        packet_size_pdf=tuple(pdf(sizes, bins=pdf_bins)),
        adu_size_cv=adu_size_cv,
        mean_interarrival=gap_summary.mean,
        interarrival_cv=summary_cv(gap_summary),
        interarrival_pdf=tuple(pdf(gaps, bins=pdf_bins)),
        fragment_percent=fragmentation_percent(trace),
        typical_group_size=typical_group,
        burst_ratio=burst_ratio,
        burst_duration=burst_duration)
    return FlowFit(profile, sizes, gaps)
