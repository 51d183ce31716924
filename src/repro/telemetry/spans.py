"""Causal span tracing: packet provenance from pacer to playout.

Where metrics aggregate and trace events narrate, spans *connect*: one
application data unit (ADU) leaving a server pacer opens a root span,
and everything that happens to it afterwards — IP fragmentation, each
hop's queue residency, serialization and propagation, reassembly at the
receiving host, and the wait in the player's delay buffer — is recorded
as a child span in the same trace.  The resulting forest is the
per-unit timeline the paper built by hand out of Ethereal captures and
tracker logs: it explains *where* an ADU's end-to-end latency went.

Propagation is by tagging: the pacer stores the root span on the
datagram's :class:`~repro.netsim.headers.PayloadMeta`, the sender's IP
layer stores a per-packet span on each emitted
:class:`~repro.netsim.packet.Packet`, and every instrumented layer
reads those tags behind the same ``None`` check discipline the rest of
the telemetry subsystem uses.  With no :class:`SpanRecorder` installed
the tags stay ``None`` and every instrumented path costs one attribute
load and a comparison.

All span ids and timestamps are derived from the simulation, so two
runs with the same seed produce identical forests — and byte-identical
exports (see :mod:`repro.telemetry.trace_export`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

# ----------------------------------------------------------------------
# Span taxonomy.  Constants rather than an Enum for the same reason the
# event bus uses strings: hot paths compare and serialize these.
# ----------------------------------------------------------------------

#: Root span: one application data unit leaving a server pacer.
SPAN_ADU = "adu"
#: One IP packet of an ADU (the only packet when unfragmented, one per
#: fragment otherwise).  Runs from emission to arrival at the
#: destination host (or to the drop that killed it).
SPAN_PACKET = "packet"
#: Queue residency at one link direction: offer to poll.
SPAN_QUEUE = "queue"
#: Serialization onto the wire at the link bandwidth.
SPAN_TX = "tx"
#: Propagation (plus jitter and FIFO clamping) to the next node.
SPAN_PROP = "prop"
#: The receiving host holding early fragments until the train lands.
SPAN_REASSEMBLY = "reassembly"
#: The delay buffer holding delivered media until its playout instant.
SPAN_BUFFER = "buffer"

ALL_SPAN_KINDS: Tuple[str, ...] = (
    SPAN_ADU, SPAN_PACKET, SPAN_QUEUE, SPAN_TX, SPAN_PROP,
    SPAN_REASSEMBLY, SPAN_BUFFER,
)

# Terminal statuses.  ``None`` means the span is still open.
STATUS_OK = "ok"
STATUS_DROPPED = "dropped"      # queue overflow / RED early drop
STATUS_LOST = "lost"            # loss-model discard in flight
STATUS_TIMEOUT = "timeout"      # reassembly gave up on the train
STATUS_PLAYED = "played"        # media reached its playout instant
STATUS_DISCARDED = "discarded"  # playout never started for this media

#: Why the flow-level director refuses span tracing; the study-level
#: compatibility table (:mod:`repro.experiments.spec`) cites it too.
SPANS_REFUSAL = ("the flow-level fast path emits no per-hop span events; "
                 "run with span tracing off or fast_path=None")


class Span:
    """One node of the provenance forest.

    A slotted plain class, not a dataclass: a full study creates one
    of these per packet per hop stage.

    Attributes:
        id: recorder-assigned monotonic id (deterministic under seed).
        trace: the root ADU span's id, shared by the whole tree.
        parent: parent span id, or ``None`` for a root.
        kind: one of the taxonomy constants above.
        start / end: simulated seconds; ``end`` is ``None`` while open.
        status: terminal status, ``None`` while open.
        attrs: free-form attributes (link label, fragment offset...).
    """

    __slots__ = ("id", "trace", "parent", "kind", "start", "end",
                 "status", "attrs")

    def __init__(self, span_id: int, trace: int, parent: Optional[int],
                 kind: str, start: float,
                 attrs: Optional[Dict[str, object]] = None) -> None:
        self.id = span_id
        self.trace = trace
        self.parent = parent
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.status: Optional[str] = None
        self.attrs: Dict[str, object] = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        """Span length in simulated seconds (0.0 while open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        end = f"{self.end:.6f}" if self.end is not None else "open"
        return (f"<Span #{self.id} {self.kind} trace={self.trace} "
                f"[{self.start:.6f}..{end}] {self.status or ''}>")


class SpanRecorder:
    """Collects the span forest for one (or many) instrumented runs.

    Install by constructing the :class:`~repro.telemetry.core.Telemetry`
    facade with ``spans=SpanRecorder()`` **before** building any
    topology — links, queues and IP layers cache the recorder handle at
    construction, exactly like the rest of the telemetry subsystem.

    The recorder is deliberately dumb about semantics: instrumented
    layers call the site-specific helpers below, and every helper
    guards itself, so call sites stay one-``if`` cheap.
    """

    def __init__(self) -> None:
        #: Every span ever started, in creation order (deterministic).
        self.spans: List[Span] = []
        self._next_id = 1
        self._context: Dict[str, object] = {}
        # Open per-hop spans, keyed by packet uid.  A packet keeps its
        # uid across hops, but it traverses one stage at a time and
        # each hop closes its queue and tx spans before the next hop
        # opens them, so one slot per stage suffices.
        self._open_queue: Dict[int, Span] = {}
        self._open_tx: Dict[int, Span] = {}

    # ------------------------------------------------------------------
    # Run scoping (mirrors the bus/registry context discipline)
    # ------------------------------------------------------------------
    def set_context(self, **labels: object) -> None:
        """Attributes stamped onto every *root* span from now on."""
        self._context = dict(labels)

    def clear_context(self) -> None:
        self._context = {}

    # ------------------------------------------------------------------
    # Generic span lifecycle
    # ------------------------------------------------------------------
    def start(self, kind: str, start: float, trace: Optional[int] = None,
              parent: Optional[int] = None,
              attrs: Optional[Dict[str, object]] = None) -> Span:
        """Open a span; roots (``trace=None``) start their own trace."""
        span_id = self._next_id
        self._next_id += 1
        span = Span(span_id, trace if trace is not None else span_id,
                    parent, kind, start, attrs)
        self.spans.append(span)
        return span

    @staticmethod
    def end(span: Span, end: float, status: str = STATUS_OK) -> None:
        span.end = end
        span.status = status

    def __len__(self) -> int:
        return len(self.spans)

    # ------------------------------------------------------------------
    # Cross-process transport (parallel studies)
    # ------------------------------------------------------------------
    def export_rows(self) -> List[Tuple]:
        """The forest as flat tuples — the snapshot wire format.

        A study's forest runs to hundreds of thousands of spans; plain
        tuples pickle an order of magnitude faster than slotted object
        instances, which is what makes shipping a worker's forest back
        to the parent cheap.
        """
        return [(span.id, span.trace, span.parent, span.kind, span.start,
                 span.end, span.status, span.attrs)
                for span in self.spans]

    def absorb_rows(self, rows: Iterable[Tuple]) -> int:
        """Adopt a worker forest from :meth:`export_rows`, rebasing ids.

        Worker ids start at 1 in every process; rebasing by this
        recorder's high-water mark reproduces, run by run, the
        contiguous id blocks a sequential sweep with one shared
        recorder would have assigned — which is what keeps parallel
        span exports byte-identical to sequential ones.

        Returns:
            The id offset applied, so callers can rebase anything else
            that captured worker-local span ids (e.g. trace records).
        """
        offset = self._next_id - 1
        highest = self._next_id - 1
        append = self.spans.append
        for span_id, trace, parent, kind, start, end, status, attrs in rows:
            span = Span(span_id + offset, trace + offset,
                        parent + offset if parent is not None else None,
                        kind, start, attrs)
            span.end = end
            span.status = status
            if span.id > highest:
                highest = span.id
            append(span)
        self._next_id = highest + 1
        return offset

    # ------------------------------------------------------------------
    # Pacer: the root of every trace
    # ------------------------------------------------------------------
    def adu_sent(self, now: float, family: str, sequence: int,
                 size_bytes: int) -> Span:
        """Open the root span for one ADU leaving a pacer."""
        attrs: Dict[str, object] = dict(self._context)
        attrs["family"] = family
        attrs["seq"] = sequence
        attrs["bytes"] = size_bytes
        return self.start(SPAN_ADU, now, attrs=attrs)

    # ------------------------------------------------------------------
    # IP send: one packet span per emitted packet
    # ------------------------------------------------------------------
    def packets_emitted(self, root: Span, now: float,
                        packets: Iterable[object]) -> None:
        """Tag each emitted packet with its own child span.

        The packet's ``uid`` is deliberately NOT recorded: uids come
        from a process-global counter, so they differ between two
        same-seed runs in one process and would break the byte-identical
        export guarantee.  ``datagram`` (the per-host IP identification)
        and ``offset`` identify the packet deterministically.
        """
        for packet in packets:
            packet.span = self.start(
                SPAN_PACKET, now, trace=root.trace, parent=root.id,
                attrs={"datagram": packet.datagram_id,
                       "offset": packet.ip.fragment_offset})

    # ------------------------------------------------------------------
    # Link / queue hop stages
    # ------------------------------------------------------------------
    def queue_entered(self, packet, now: float, link: str) -> None:
        span = packet.span
        self._open_queue[packet.uid] = self.start(
            SPAN_QUEUE, now, trace=span.trace, parent=span.id,
            attrs={"link": link})

    def queue_left(self, packet, now: float) -> None:
        span = self._open_queue.pop(packet.uid, None)
        if span is not None:
            self.end(span, now)

    def tx_started(self, packet, now: float, link: str) -> None:
        span = packet.span
        self._open_tx[packet.uid] = self.start(
            SPAN_TX, now, trace=span.trace, parent=span.id,
            attrs={"link": link})

    def tx_finished(self, packet, now: float) -> None:
        span = self._open_tx.pop(packet.uid, None)
        if span is not None:
            self.end(span, now)

    def propagated(self, packet, start: float, end: float,
                   link: str) -> None:
        """Record a propagation leg; arrival is known at send time, so
        the span is born closed."""
        span = packet.span
        prop = self.start(SPAN_PROP, start, trace=span.trace,
                          parent=span.id, attrs={"link": link})
        self.end(prop, end)

    def packet_dropped(self, packet, now: float, status: str,
                       link: str) -> None:
        """A queue or the loss model killed the packet in flight."""
        span = packet.span
        span.attrs["dropped_at"] = link
        self.end(span, now, status)

    # ------------------------------------------------------------------
    # Destination host: arrival and reassembly
    # ------------------------------------------------------------------
    def packet_arrived(self, packet, now: float) -> None:
        """The destination IP layer accepted the packet."""
        self.end(packet.span, now)

    def reassembly_started(self, root: Span, now: float,
                           host: str) -> Span:
        """First fragment of a train reached the destination; the
        caller keeps the returned span on its reassembly buffer."""
        return self.start(SPAN_REASSEMBLY, now, trace=root.trace,
                          parent=root.id, attrs={"host": host})

    def reassembly_finished(self, span: Span, now: float,
                            fragments: int) -> None:
        span.attrs["fragments"] = fragments
        self.end(span, now)

    def reassembly_timed_out(self, span: Span, now: float,
                             fragments: int) -> None:
        span.attrs["fragments"] = fragments
        self.end(span, now, STATUS_TIMEOUT)

    # ------------------------------------------------------------------
    # Player: buffer admission through playout
    # ------------------------------------------------------------------
    def buffer_admitted(self, root: Span, now: float, player: str,
                        media_begin: float) -> Span:
        """Delivered media entered the delay buffer; the player closes
        the span once the playout instant of the media is known."""
        return self.start(SPAN_BUFFER, now, trace=root.trace,
                          parent=root.id,
                          attrs={"player": player,
                                 "media_begin": media_begin})

    def buffer_released(self, span: Span, root: Span,
                        playout_time: Optional[float]) -> None:
        """Close a buffer span (and its root) at the playout instant.

        ``playout_time`` is ``None`` when playout never started — the
        media was discarded with the session, so the wait is zero and
        the status says so.
        """
        if playout_time is None:
            self.end(span, span.start, STATUS_DISCARDED)
            self.end(root, span.start, STATUS_DISCARDED)
            return
        end = max(span.start, playout_time)
        self.end(span, end, STATUS_PLAYED)
        self.end(root, end, STATUS_PLAYED)

    # ------------------------------------------------------------------
    # Introspection helpers (tests, analyzers)
    # ------------------------------------------------------------------
    def of_kind(self, kind: str) -> List[Span]:
        return [span for span in self.spans if span.kind == kind]

    def roots(self) -> List[Span]:
        return self.of_kind(SPAN_ADU)

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent == span.id]
