"""The structured trace-event bus.

Where the registry (:mod:`repro.telemetry.registry`) aggregates,
the bus *narrates*: each instrumented layer emits typed events —
``packet_enqueued``, ``queue_drop``, ``fragment_emitted``,
``rebuffer_start`` — timestamped in simulated seconds and stamped with
a monotonic sequence number, so a study run can be replayed as a
totally-ordered timeline.  Events fan out to pluggable sinks (see
:mod:`repro.telemetry.sinks`); when no sink is live the bus refuses to
even construct the event object, keeping the hot path allocation-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

#: Every telemetry export rounds its floats to this many decimals:
#: simulated times are exact under a fixed seed, so the rounding only
#: normalizes repr noise, and same-seed exports stay byte-identical.
FLOAT_DECIMALS = 9


def round_export(value: Optional[float]) -> Optional[float]:
    """``value`` rounded to :data:`FLOAT_DECIMALS`; ``None`` stays
    ``None``."""
    if value is None:
        return None
    return round(value, FLOAT_DECIMALS)


# ----------------------------------------------------------------------
# Event taxonomy.  Constants rather than an Enum: emit sites compare and
# serialize these millions of times, and a str is both.
# ----------------------------------------------------------------------

#: A packet was accepted into a link-direction queue.
PACKET_ENQUEUED = "packet_enqueued"
#: A queue rejected a packet (drop-tail overflow or RED early drop).
QUEUE_DROP = "queue_drop"
#: The loss model discarded a packet in flight.
PACKET_LOSS = "packet_loss"
#: A packet finished propagation and reached its sink node.
PACKET_DELIVERED = "packet_delivered"
#: The sender's IP layer sliced a datagram into MTU-sized fragments.
FRAGMENT_EMITTED = "fragment_emitted"
#: A reassembly buffer gave up waiting for missing fragments.
REASSEMBLY_TIMEOUT = "reassembly_timeout"
#: A server began streaming a clip (one per PLAY).
STREAM_START = "stream_start"
#: A pacer exhausted its clip and sent the end-of-stream marker.
STREAM_END = "stream_end"
#: A pacer changed its send rate (media scaling or burst->steady).
RATE_SWITCH = "rate_switch"
#: The client delay buffer reached its preroll target; playout begins.
PLAYOUT_START = "playout_start"
#: The delay buffer ran dry while playing.
REBUFFER_START = "rebuffer_start"
#: Media arrived again after an underrun; playback resumes.
REBUFFER_STOP = "rebuffer_stop"

# ----------------------------------------------------------------------
# Fault injection and recovery (repro.faults).
# ----------------------------------------------------------------------

#: The fault controller executed one scheduled fault event.
FAULT_INJECTED = "fault_injected"
#: A link direction went administratively down (packets now dropped).
LINK_DOWN = "link_down"
#: A down link came back up.
LINK_UP = "link_up"
#: A node dropped a packet because no route survived re-convergence.
NO_ROUTE_DROP = "no_route_drop"
#: The route manager finished recomputing tables after a link event.
ROUTE_RECONVERGED = "route_reconverged"
#: A reliable TCP connection retransmitted unacknowledged segments.
TCP_RETRANSMIT = "tcp_retransmit"
#: A reliable TCP connection gave up (retries exhausted / handshake).
TCP_ABORT = "tcp_abort"
#: A client keepalive went unanswered within its timeout.
KEEPALIVE_MISS = "keepalive_miss"
#: A client exhausted its keepalive retries; the session is dead.
SESSION_LOST = "session_lost"
#: The player's quality controller stepped down a level.
QUALITY_DOWNSHIFT = "quality_downshift"
#: The player's quality controller stepped back up a level.
QUALITY_UPSHIFT = "quality_upshift"
#: The stall watchdog ended a playback that stopped receiving media.
PLAYER_STALLED = "player_stalled"
#: End-of-stream never arrived; playback was closed by the timeout
#: fallback with a deterministic stop time.
EOS_TIMEOUT = "eos_timeout"
#: A server paused all live sessions (fault injection).
SERVER_PAUSED = "server_paused"
#: A paused server resumed its sessions.
SERVER_RESUMED = "server_resumed"
#: A server crashed: sessions dropped silently, no EOS, no TEARDOWN ack.
SERVER_CRASHED = "server_crashed"

# ----------------------------------------------------------------------
# Congestion control and adaptive bitrate (repro.cc).
# ----------------------------------------------------------------------

#: A cc session controller processed a receiver report: new pacing
#: rate / cwnd snapshot.
CC_STATE = "cc_state"
#: An ABR server began streaming one segment at a ladder rung.
ABR_SEGMENT = "abr_segment"
#: The ABR player switched ladder rungs between segments.
ABR_SWITCH = "abr_switch"

# ----------------------------------------------------------------------
# Loss repair and viewer experience (repro.repair).
# ----------------------------------------------------------------------

#: The sender closed an FEC group and emitted its XOR parity datagram.
FEC_PARITY_SENT = "fec_parity_sent"
#: The player sent a retransmission request for missing sequences.
NACK_SENT = "nack_sent"
#: The server retransmitted a media datagram from its send history.
RETRANSMIT_SENT = "retransmit_sent"
#: The player repaired a lost sequence (parity decode or RTX arrival).
REPAIR_RECOVERED = "repair_recovered"
#: The player gave up on a lost sequence (deadline passed or retries
#: exhausted) — the graceful-drop path.
REPAIR_ABANDONED = "repair_abandoned"
#: A finished playback published its deterministic per-viewer QoE
#: score (repair-armed runs only).
QOE_SCORE = "qoe_score"

ALL_EVENT_TYPES: Tuple[str, ...] = (
    PACKET_ENQUEUED, QUEUE_DROP, PACKET_LOSS, PACKET_DELIVERED,
    FRAGMENT_EMITTED, REASSEMBLY_TIMEOUT, STREAM_START, STREAM_END,
    RATE_SWITCH, PLAYOUT_START, REBUFFER_START, REBUFFER_STOP,
    FAULT_INJECTED, LINK_DOWN, LINK_UP, NO_ROUTE_DROP, ROUTE_RECONVERGED,
    TCP_RETRANSMIT, TCP_ABORT, KEEPALIVE_MISS, SESSION_LOST,
    QUALITY_DOWNSHIFT, QUALITY_UPSHIFT, PLAYER_STALLED, EOS_TIMEOUT,
    SERVER_PAUSED, SERVER_RESUMED, SERVER_CRASHED,
    CC_STATE, ABR_SEGMENT, ABR_SWITCH,
    FEC_PARITY_SENT, NACK_SENT, RETRANSMIT_SENT,
    REPAIR_RECOVERED, REPAIR_ABANDONED, QOE_SCORE,
)


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record.

    Attributes:
        type: one of the taxonomy constants above.
        time: simulated seconds.
        sequence: bus-assigned monotonic tiebreaker; two events at the
            same simulated instant replay in emission order.
        fields: free-form event payload (queue depth, fragment count,
            player family...), values restricted to JSON scalars.
    """

    type: str
    time: float
    sequence: int
    fields: Tuple[Tuple[str, object], ...] = ()

    def field_dict(self) -> Dict[str, object]:
        return dict(self.fields)

    def as_record(self) -> Dict[str, object]:
        """Flat dict form used by the JSON-lines sink."""
        record: Dict[str, object] = {
            "type": self.type, "time": round_export(self.time),
            "seq": self.sequence,
        }
        for key, value in self.fields:
            record[key] = value
        return record


class TraceEventBus:
    """Bounded fan-out from emit sites to sinks.

    Args:
        sinks: initial sinks; more may be attached later.  The bus is
            *inactive* (emit is a no-op that allocates nothing) until at
            least one attached sink reports ``active``.
    """

    def __init__(self, sinks: Optional[Iterable[object]] = None) -> None:
        self._sinks: List[object] = []
        self._sequence = 0
        self._active = False
        self._context: Tuple[Tuple[str, object], ...] = ()
        for sink in sinks or ():
            self.attach(sink)

    def attach(self, sink: object) -> None:
        self._sinks.append(sink)
        self._refresh_active()

    def detach(self, sink: object) -> None:
        """Remove a previously-attached sink (identity match).

        The study runner attaches one per-run streaming sink before a
        pair run and detaches it after, so a run's folds never bleed
        into the next run's summary.  Detaching a sink that is not
        attached is a no-op.
        """
        try:
            self._sinks.remove(sink)
        except ValueError:
            return
        self._refresh_active()

    def _refresh_active(self) -> None:
        self._active = any(getattr(sink, "active", True)
                           for sink in self._sinks)

    @property
    def active(self) -> bool:
        """Whether emit does any work at all."""
        return self._active

    def set_context(self, **labels: object) -> None:
        """Fields stamped onto every event emitted from now on."""
        self._context = tuple(sorted(labels.items()))

    def clear_context(self) -> None:
        self._context = ()

    def emit(self, event_type: str, time: float, **fields: object) -> None:
        """Publish one event; a no-op (no allocation) when inactive."""
        if not self._active:
            return
        event = TraceEvent(type=event_type, time=time,
                           sequence=self._sequence,
                           fields=self._context + tuple(sorted(fields.items())))
        self._sequence += 1
        for sink in self._sinks:
            if getattr(sink, "active", True):
                sink.write(event)

    def replay(self, rows: Iterable[Tuple[str, float, Tuple]]) -> int:
        """Deliver pre-recorded ``(type, time, fields)`` rows, in order.

        The parallel study executor captures each worker's events in
        the worker process (see ``Telemetry.snapshot``, which encodes
        them as these rows — tuples cross the process boundary far
        cheaper than event objects) and replays them here; every event
        keeps its simulated timestamp and fields but receives *this*
        bus's next sequence number, so a parallel study's merged stream
        is numbered exactly like the sequential one.

        Returns:
            The number of events delivered (0 when the bus is inactive,
            mirroring :meth:`emit`).
        """
        if not self._active:
            return 0
        sinks = [sink for sink in self._sinks
                 if getattr(sink, "active", True)]
        delivered = 0
        for event_type, time, fields in rows:
            event = TraceEvent(type=event_type, time=time,
                               sequence=self._sequence, fields=fields)
            self._sequence += 1
            delivered += 1
            for sink in sinks:
                sink.write(event)
        return delivered

    def close(self) -> None:
        """Flush and close every sink that supports it."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()
