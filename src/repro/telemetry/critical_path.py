"""Latency attribution over a recorded span forest.

Answers the question the paper answered with captures and tracker logs:
*where did this ADU's end-to-end latency go?*  For every completed ADU
trace the analyzer decomposes

    playout_time - pacer_send_time

into five exactly-tiling components:

* **queueing** — time spent resident in link queues, summed over the
  hops of the *first-arriving* packet of the ADU;
* **serialization** — wire transmission time over those hops;
* **propagation** — speed-of-light plus jitter over those hops;
* **reassembly-wait** — how long the destination host held the first
  fragment waiting for the rest of the train (zero when unfragmented).
  This is precisely the extra latency caused by fragmentation — the
  trailing fragments' serialization shows up here, which is the
  paper's Figure 4/5 story in latency form;
* **buffer-wait** — how long the delay buffer held the media before
  its playout instant.

Because hop spans tile the first packet's journey and the reassembly
and buffer spans tile the rest, the five components sum to the measured
end-to-end latency to float precision — an invariant the test suite
pins and the ``repro spans`` acceptance check relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.telemetry.events import round_export
from repro.telemetry.spans import (
    SPAN_ADU,
    SPAN_BUFFER,
    SPAN_PACKET,
    SPAN_PROP,
    SPAN_QUEUE,
    SPAN_REASSEMBLY,
    SPAN_TX,
    STATUS_OK,
    STATUS_PLAYED,
    Span,
    SpanRecorder,
)

@dataclass
class HopTiming:
    """One hop of the critical packet's journey."""

    link: str
    queue: float = 0.0
    tx: float = 0.0
    prop: float = 0.0

    @property
    def total(self) -> float:
        return self.queue + self.tx + self.prop


@dataclass
class AduLatency:
    """The full attribution for one completed ADU."""

    trace: int
    family: str
    run: Optional[str]
    sequence: int
    start: float
    end: float
    fragment_count: int
    queueing: float
    serialization: float
    propagation: float
    reassembly_wait: float
    buffer_wait: float
    hops: List[HopTiming] = field(default_factory=list)

    @property
    def total(self) -> float:
        """Measured end-to-end latency: pacer send to playout."""
        return self.end - self.start

    @property
    def components_sum(self) -> float:
        """The five attributed components, summed (== total to float
        precision; the invariant the tests pin)."""
        return (self.queueing + self.serialization + self.propagation
                + self.reassembly_wait + self.buffer_wait)

    def as_record(self) -> Dict[str, object]:
        """Flat JSON-able form used by the ``repro spans`` export."""
        record: Dict[str, object] = {
            "trace": self.trace, "family": self.family,
            "seq": self.sequence, "fragments": self.fragment_count,
            "start": round_export(self.start),
            "end": round_export(self.end),
            "total": round_export(self.total),
            "queueing": round_export(self.queueing),
            "serialization": round_export(self.serialization),
            "propagation": round_export(self.propagation),
            "reassembly_wait": round_export(self.reassembly_wait),
            "buffer_wait": round_export(self.buffer_wait),
            "hops": [{"link": hop.link,
                      "queue": round_export(hop.queue),
                      "tx": round_export(hop.tx),
                      "prop": round_export(hop.prop)}
                     for hop in self.hops],
        }
        if self.run is not None:
            record["run"] = self.run
        return record


COMPONENT_NAMES = ("queueing", "serialization", "propagation",
                   "reassembly_wait", "buffer_wait")


def attribute_latency(recorder: SpanRecorder) -> List[AduLatency]:
    """Decompose every completed ADU trace in the recorder.

    ADUs whose media never reached a playout instant (discarded with
    the session, dropped in flight, still open at shutdown) are
    skipped: there is no end-to-end latency to attribute.
    """
    by_trace: Dict[int, List[Span]] = {}
    for span in recorder.spans:
        by_trace.setdefault(span.trace, []).append(span)

    results: List[AduLatency] = []
    for root in recorder.spans:
        if root.kind != SPAN_ADU or root.status != STATUS_PLAYED:
            continue
        family = str(root.attrs.get("family", "?"))
        run = root.attrs.get("run")
        members = by_trace[root.trace]
        buffer_span = _single(members, SPAN_BUFFER)
        if buffer_span is None or buffer_span.status != STATUS_PLAYED:
            continue
        packets = [s for s in members if s.kind == SPAN_PACKET
                   and s.status == STATUS_OK]
        if not packets:
            continue
        # The first-arriving packet carries the network attribution;
        # everything the train added on top lands in reassembly-wait.
        first = min(packets, key=lambda s: (s.end, s.id))
        hops = _hop_timings(members, first)
        reassembly = _single(members, SPAN_REASSEMBLY)
        reassembly_wait = (reassembly.duration
                           if reassembly is not None and reassembly.closed
                           else 0.0)
        results.append(AduLatency(
            trace=root.trace, family=family,
            run=str(run) if run is not None else None,
            sequence=int(root.attrs.get("seq", 0)),
            start=root.start, end=buffer_span.end,
            fragment_count=len([s for s in members
                                if s.kind == SPAN_PACKET]),
            queueing=sum(h.queue for h in hops),
            serialization=sum(h.tx for h in hops),
            propagation=sum(h.prop for h in hops),
            reassembly_wait=reassembly_wait,
            buffer_wait=buffer_span.duration,
            hops=hops))
    return results


def _single(members: Sequence[Span], kind: str) -> Optional[Span]:
    for span in members:
        if span.kind == kind:
            return span
    return None


def _hop_timings(members: Sequence[Span], packet: Span) -> List[HopTiming]:
    """The packet's queue/tx/prop stages folded into per-hop rows.

    Stages were recorded in traversal order (span ids are monotonic in
    event order), and every hop starts with a queue span, so a queue
    span opens a new row and tx/prop fill the current one.
    """
    stages = sorted((s for s in members if s.parent == packet.id),
                    key=lambda s: s.id)
    hops: List[HopTiming] = []
    for stage in stages:
        if stage.kind == SPAN_QUEUE:
            hops.append(HopTiming(link=str(stage.attrs.get("link", "?")),
                                  queue=stage.duration))
        elif stage.kind == SPAN_TX and hops:
            hops[-1].tx = stage.duration
        elif stage.kind == SPAN_PROP and hops:
            hops[-1].prop = stage.duration
    return hops


# ----------------------------------------------------------------------
# Aggregation (the WMS-vs-RealServer side-by-side table)
# ----------------------------------------------------------------------

def aggregate_attribution(latencies: Sequence[AduLatency],
                          ) -> Dict[str, Dict[str, float]]:
    """Per-family means of every component, plus counts.

    Returns ``{family: {"count", "mean_total", "mean_<component>"...,
    "share_<component>"...}}`` with shares in percent of mean total.
    """
    grouped: Dict[str, List[AduLatency]] = {}
    for latency in latencies:
        grouped.setdefault(latency.family, []).append(latency)
    table: Dict[str, Dict[str, float]] = {}
    for family in sorted(grouped):
        rows = grouped[family]
        count = len(rows)
        entry: Dict[str, float] = {"count": count}
        mean_total = sum(r.total for r in rows) / count
        entry["mean_total"] = round_export(mean_total)
        for name in COMPONENT_NAMES:
            mean = sum(getattr(r, name) for r in rows) / count
            entry[f"mean_{name}"] = round_export(mean)
            entry[f"share_{name}"] = round(
                100.0 * mean / mean_total if mean_total else 0.0, 4)
        entry["mean_fragments"] = round(
            sum(r.fragment_count for r in rows) / count, 4)
        table[family] = entry
    return table


def slowest(latencies: Sequence[AduLatency], top: int) -> List[AduLatency]:
    """The ``top`` highest-latency ADUs, slowest first (stable by
    trace id so same-seed runs rank identically)."""
    return sorted(latencies, key=lambda r: (-r.total, r.trace))[:top]


def attribution_dict(latencies: Sequence[AduLatency],
                     top: int = 10) -> Dict[str, object]:
    """The machine-readable document ``repro spans --json`` writes."""
    return {
        "adu_count": len(latencies),
        "aggregate": aggregate_attribution(latencies),
        "slowest": [latency.as_record()
                    for latency in slowest(latencies, top)],
    }
