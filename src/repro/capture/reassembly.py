"""Trace-side fragment-train analysis.

Section III.C of the paper identifies "groups of packets" in the
MediaPlayer traces — one UDP packet followed by IP fragments, all
1514-byte wire frames except the last — and computes what share of all
packets are fragments (Figure 5).  Section III.E removes fragment noise
from interarrival analysis by considering "only the first UDP packet in
each packet group" (Figure 9).  This module implements both
operations on captured traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.capture.trace import PacketRecord, Trace
from repro.errors import AnalysisError


@dataclass
class FragmentGroup:
    """All captured packets of one IP datagram, in arrival order."""

    records: List[PacketRecord] = field(default_factory=list)

    @property
    def first_time(self) -> float:
        return self.records[0].time

    @property
    def last_time(self) -> float:
        return self.records[-1].time

    @property
    def span(self) -> float:
        """Seconds from first to last packet of the train."""
        return self.last_time - self.first_time

    @property
    def packet_count(self) -> int:
        return len(self.records)

    @property
    def wire_bytes(self) -> int:
        return sum(r.wire_bytes for r in self.records)

    @property
    def is_fragmented(self) -> bool:
        return any(r.is_fragment for r in self.records)

    @property
    def complete(self) -> bool:
        """True when both the first fragment (offset 0) and the final
        fragment (more-fragments clear) were captured."""
        if not self.is_fragmented:
            return bool(self.records)
        has_first = any(r.fragment_offset == 0 for r in self.records)
        has_last = any(not r.more_fragments for r in self.records)
        return has_first and has_last

    @property
    def trailing_fragment_count(self) -> int:
        return sum(1 for r in self.records if r.is_trailing_fragment)


def group_datagrams(trace: Trace) -> List[FragmentGroup]:
    """Group a trace's records into per-datagram fragment trains.

    Unfragmented packets become singleton groups.  Groups are returned
    ordered by the arrival time of their first captured packet.
    """
    groups: List[FragmentGroup] = []
    open_groups: Dict[Tuple[int, int, int, str], FragmentGroup] = {}
    for record in trace:
        if not record.is_fragment:
            groups.append(FragmentGroup(records=[record]))
            continue
        key = (record.src.value, record.dst.value, record.identification,
               record.protocol)
        group = open_groups.get(key)
        if group is None:
            group = FragmentGroup()
            open_groups[key] = group
            groups.append(group)
        group.records.append(record)
        if not record.more_fragments:
            # Saw the final fragment; the identification may be reused
            # later (16-bit wrap), so close the group now.
            open_groups.pop(key, None)
    return groups


def fragmentation_percent(trace: Trace) -> float:
    """Share of captured packets that are IP fragments, in percent.

    This follows the paper's metric: Ethereal displays the first
    fragment of a datagram as the UDP packet of the group, so only
    *trailing* fragments count — one UDP packet plus two fragments is
    "66% IP fragmentation" (Figure 5's 300 Kbps data point).

    Raises:
        AnalysisError: for an empty trace.
    """
    if len(trace) == 0:
        raise AnalysisError("cannot compute fragmentation of an empty trace")
    trailing = sum(1 for record in trace if record.is_trailing_fragment)
    return 100.0 * trailing / len(trace)


def first_of_group_times(trace: Trace) -> List[float]:
    """Arrival time of the first packet of each datagram group.

    The paper uses exactly this reduction for the MediaPlayer
    interarrival CDF (Figure 9) "to remove the noise caused by the IP
    fragments".
    """
    return [group.first_time for group in group_datagrams(trace)]


def group_size_pattern(trace: Trace) -> List[int]:
    """Packets per datagram group, in arrival order.

    For CBR MediaPlayer traffic this is a constant vector (the paper:
    "a constant number of packets in each group").
    """
    return [group.packet_count for group in group_datagrams(trace)]


def crosscheck_spans(trace: Trace, recorder,
                     tolerance: float = 1e-9) -> List[str]:
    """Validate a receiver-side capture against a span forest.

    The sniffer and the :class:`~repro.telemetry.spans.SpanRecorder`
    observe the same packets through entirely independent code paths,
    so their views must agree — this is the capture-vs-spans analogue
    of the paper correlating Ethereal with the tracker logs.  For every
    ``rx`` record carrying span provenance, the referenced packet span
    must exist and agree on datagram id, fragment offset, and arrival
    timestamp; every fragmented datagram group must match its trace's
    reassembly span on fragment count and first-to-last train span.

    Returns a list of human-readable mismatches; empty means the two
    views agree.
    """
    mismatches: List[str] = []
    by_id = {span.id: span for span in recorder.spans}
    received = trace.received()
    for record in received:
        if record.span_id is None:
            continue
        span = by_id.get(record.span_id)
        if span is None:
            mismatches.append(f"packet #{record.number}: span "
                              f"{record.span_id} not in recorder")
            continue
        if span.attrs.get("datagram") != record.datagram_id:
            mismatches.append(
                f"packet #{record.number}: datagram id "
                f"{record.datagram_id} != span's "
                f"{span.attrs.get('datagram')}")
        if span.attrs.get("offset") != record.fragment_offset:
            mismatches.append(
                f"packet #{record.number}: fragment offset "
                f"{record.fragment_offset} != span's "
                f"{span.attrs.get('offset')}")
        if span.end is None or abs(span.end - record.time) > tolerance:
            mismatches.append(
                f"packet #{record.number}: capture time {record.time!r} "
                f"!= span arrival {span.end!r}")
    reassembly_by_trace = {
        span.trace: span for span in recorder.spans
        if span.kind == "reassembly"}
    for group in group_datagrams(received):
        first = group.records[0]
        if not group.is_fragmented or first.span_trace is None:
            continue
        if not group.complete:
            continue
        span = reassembly_by_trace.get(first.span_trace)
        if span is None:
            mismatches.append(f"datagram {first.datagram_id}: fragmented "
                              f"train has no reassembly span")
            continue
        if span.attrs.get("fragments") != group.packet_count:
            mismatches.append(
                f"datagram {first.datagram_id}: captured "
                f"{group.packet_count} fragments, reassembly span saw "
                f"{span.attrs.get('fragments')}")
        if span.end is None or abs(span.duration - group.span) > tolerance:
            mismatches.append(
                f"datagram {first.datagram_id}: train span "
                f"{group.span!r} != reassembly duration "
                f"{span.duration!r}")
    return mismatches
