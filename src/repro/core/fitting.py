"""Fit a turbulence profile from a capture.

Given the media-flow trace of one clip (and optionally the tracker's
application statistics), measure every field of a
:class:`~repro.core.turbulence.TurbulenceProfile` exactly the way the
paper's Section III does: wire sizes for the packet-size distribution,
first-of-group interarrivals to remove fragment noise, trailing
fragments for the fragmentation share, and the bandwidth timeline for
the buffering ratio.  A Section IV flow is fitted from its datagram
schedule (:func:`fit_schedule`), to the same values its trace gives.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro import units
from repro.analysis.bandwidth import bandwidth_series, rate_series
from repro.analysis.buffering import (
    BURST_THRESHOLD,
    buffering_ratio_vs_playout,
)
from repro.analysis.distributions import pdf, summarize
from repro.analysis.interarrival import interarrival_times
from repro.analysis.normalize import coefficient_of_variation, summary_cv
from repro.capture.reassembly import group_datagrams
from repro.capture.trace import Trace
from repro.core.generator import SyntheticFlow
from repro.core.turbulence import TurbulenceProfile
from repro.errors import AnalysisError
from repro.players.stats import PlayerStats


#: Resolution of a profile's stored distributions.
_PDF_BINS = 24


class FlowFit(NamedTuple):
    """A fitted profile plus the samples it was measured from."""

    profile: TurbulenceProfile
    #: Wire size of every packet, in capture order.
    sizes: List[float]
    #: First-of-group interarrivals (the Figure 9 reduction).
    gaps: List[float]


def fit_profile(trace: Trace, encoded_kbps: float, label: str = "",
                stats: Optional[PlayerStats] = None,
                pdf_bins: int = _PDF_BINS) -> TurbulenceProfile:
    """Measure a flow's turbulence profile (see :func:`fit_flow`)."""
    return fit_flow(trace, encoded_kbps, label, stats, pdf_bins).profile


def fit_flow(trace: Trace, encoded_kbps: float, label: str = "",
             stats: Optional[PlayerStats] = None,
             pdf_bins: int = _PDF_BINS) -> FlowFit:
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
        AnalysisError: when the trace is too short to characterize
            (needs at least 4 packets in 2 datagram groups).
    """
    groups = group_datagrams(trace)
    series = None
    if stats is not None:
        series = stats.bandwidth_timeline(interval=1.0)
    elif trace.duration > 4.0:
        series = bandwidth_series(trace, interval=1.0)
    return _fit_datagrams(
        [float(record.wire_bytes) for record in trace],
        [group.first_time for group in groups],
        [group.packet_count for group in groups],
        [group.wire_bytes for group in groups],
        sum(1 for record in trace if record.is_trailing_fragment),
        series, encoded_kbps, label or trace.description, pdf_bins)


def fit_schedule(flow: SyntheticFlow, label: str) -> FlowFit:
    """:func:`fit_flow` of ``flow.to_trace()``, from the schedule alone.

    A synthetic flow's datagrams are its schedule, so no capture row is
    built and none regrouped: each datagram's packets come from the IP
    layer's split (:meth:`SyntheticFlow.datagrams`), every packet after
    a datagram's first is a trailing fragment, and the rate series
    buckets whole datagrams.  The burst is measured against the rate
    the flow was generated at (``flow.encoded_kbps``).  The fit is the
    trace's under the same label, value for value, and so are the
    errors.

    Raises:
        AnalysisError: when the flow is too short to characterize
            (needs at least 4 packets in 2 datagrams).
    """
    sizes: List[float] = []
    times: List[float] = []
    packets: List[int] = []
    wire_bytes: List[int] = []
    for time, ip_payloads in flow.datagrams():
        wires = [units.wire_frame_bytes(units.IPV4_HEADER_BYTES + size)
                 for size in ip_payloads]
        sizes.extend(map(float, wires))
        times.append(time)
        packets.append(len(wires))
        wire_bytes.append(sum(wires))
    series = None
    if flow.streaming_duration > 4.0:
        series = rate_series(times, wire_bytes, interval=1.0)
    return _fit_datagrams(sizes, times, packets, wire_bytes,
                          len(sizes) - len(times), series,
                          flow.encoded_kbps, label, _PDF_BINS)


def _fit_datagrams(sizes: List[float], first_times: List[float],
                   packet_counts: List[int], wire_bytes: List[int],
                   trailing: int,
                   series: Optional[List[Tuple[float, float]]],
                   encoded_kbps: float, label: str,
                   pdf_bins: int) -> FlowFit:
    """The profile of a flow given as datagram-level samples.

    ``sizes`` holds every packet's wire bytes in capture order; the
    three lists after it hold each datagram's first time, packet count
    and wire bytes, in the same order; ``trailing`` counts the packets
    that are not a datagram's first; ``series`` is the rate timeline
    the burst is measured from, if any.
    """
    packets, datagrams = len(sizes), len(first_times)
    if packets < 4 or datagrams < 2:
        raise AnalysisError(
            f"flow too short to fit a turbulence profile: {packets} "
            f"packet{'s' * (packets != 1)} in {datagrams} "
            f"datagram{'s' * (datagrams != 1)}, and a profile needs "
            "at least 4 packets in 2 datagrams")
    size_summary = summarize(sizes)
    gaps = interarrival_times(first_times)
    gap_summary = summarize(gaps)

    group_sizes = sorted(packet_counts)
    typical_group = group_sizes[len(group_sizes) // 2]
    # ADU-level size regularity; drop the clip's truncated final ADU so
    # a strictly CBR flow measures as exactly constant.
    group_bytes = [float(size) for size in wire_bytes]
    if len(group_bytes) > 2:
        group_bytes = group_bytes[:-1]
    adu_size_cv = coefficient_of_variation(group_bytes)

    burst_ratio = 1.0
    burst_duration = 0.0
    if series is not None and len(series) >= 4:
        # Ratio against the known playout (encoding) rate, which stays
        # well-defined even when a short clip is consumed entirely
        # within the burst (see Figure 11's definition).
        burst_ratio = max(1.0, buffering_ratio_vs_playout(series,
                                                          encoded_kbps))
        threshold = encoded_kbps * BURST_THRESHOLD
        for _, rate in series:
            if rate <= threshold:
                break
            burst_duration += 1.0

    profile = TurbulenceProfile(
        label=label,
        encoded_kbps=encoded_kbps,
        mean_packet_bytes=size_summary.mean,
        packet_size_cv=summary_cv(size_summary),
        packet_size_pdf=tuple(pdf(sizes, bins=pdf_bins)),
        adu_size_cv=adu_size_cv,
        mean_interarrival=gap_summary.mean,
        interarrival_cv=summary_cv(gap_summary),
        interarrival_pdf=tuple(pdf(gaps, bins=pdf_bins)),
        fragment_percent=100.0 * trailing / len(sizes),
        typical_group_size=typical_group,
        burst_ratio=burst_ratio,
        burst_duration=burst_duration)
    return FlowFit(profile, sizes, gaps)
