"""Runtime invariant checking for simulation runs.

The simulator's claims rest on conservation laws — every packet a link
accepts is delivered, lost, queued, or on the wire; every ADU a pacer
emits is reassembled at the player or accounted for as loss; buffers
never go negative — yet nothing in a plain run *checks* them.  A
:class:`RunValidator` does, mechanically, at run end.

The validator follows the telemetry subsystem's opt-in discipline
exactly: pass one to ``Simulator(validate=...)`` and instrumented
layers self-register at construction behind a single
``sim.validator is not None`` check.  With no validator attached, the
per-object cost is one attribute load — and a validated run schedules
no extra events, so enabling validation never perturbs the simulation
itself (same seed, same packets, same figures).

At the end of a run :meth:`RunValidator.check_run` sweeps every
registered object and evaluates the invariant catalog (see
ARCHITECTURE.md for the full list), collecting
:class:`Violation` records with enough context to name the guilty
link, queue, host, or player.  Depending on ``raise_on_violation`` it
either raises :class:`~repro.errors.ValidationError` or returns the
violations for reporting (the ``repro validate`` CLI does the latter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ValidationError
from repro.telemetry.critical_path import attribute_latency
from repro.telemetry.events import REBUFFER_START
from repro.telemetry.sinks import MemorySink
from repro.telemetry.streaming import StreamingSink, fold_events
from repro.telemetry.spans import (
    SPAN_ADU,
    SPAN_BUFFER,
    SPAN_PACKET,
    SPAN_REASSEMBLY,
    STATUS_DISCARDED,
    STATUS_DROPPED,
    STATUS_LOST,
    STATUS_PLAYED,
    STATUS_TIMEOUT,
)

#: Absolute slack for floating-point comparisons (media seconds,
#: component sums).  Matches the 1e-9 precision the span exporters and
#: the critical-path tests pin.
FLOAT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Violation:
    """One failed invariant, with enough context to locate the bug."""

    invariant: str
    message: str
    context: Tuple[Tuple[str, object], ...] = ()

    @property
    def context_dict(self) -> Dict[str, object]:
        return dict(self.context)

    def __str__(self) -> str:
        where = ", ".join(f"{key}={value}" for key, value in self.context)
        suffix = f" [{where}]" if where else ""
        return f"{self.invariant}: {self.message}{suffix}"


#: Every invariant the checker knows, in evaluation order.  The CLI
#: and the docs render this catalog; tests assert it stays in sync
#: with the checks below.
INVARIANT_NAMES: Tuple[str, ...] = (
    "queue-conservation",
    "link-conservation",
    "ip-accounting",
    "reassembly-drained",
    "tcp-sequence",
    "pacer-budget",
    "buffer-bounds",
    "player-accounting",
    "clock-monotonic",
    "span-integrity",
    "byte-conservation",
    "span-decomposition",
    "cc-bounds",
    "ladder-conservation",
    "stream-equivalence",
    "fec-conservation",
    "repair-no-duplication",
    "fastpath-equivalence",
)


class _SpanSlice:
    """A read-only recorder view over one run's spans.

    :func:`~repro.telemetry.critical_path.attribute_latency` walks
    ``recorder.spans``; handing it a slice keeps per-run checks O(run)
    instead of re-attributing the whole study forest every sweep.
    """

    def __init__(self, spans: List) -> None:
        self.spans = spans


class RunValidator:
    """Collects layer registrations and enforces invariants at run end.

    Args:
        raise_on_violation: when True (the default), the first
            :meth:`check_run` that finds violations raises
            :class:`~repro.errors.ValidationError`; when False the
            violations accumulate on :attr:`violations` for reporting.

    One validator may outlive many simulators, exactly like the
    telemetry facade: the study runner passes the same instance to
    every pair run's ``Simulator(validate=...)``, and :meth:`bind`
    (called by the simulator's constructor) resets the per-run
    registrations while the cross-run tallies keep counting.
    """

    def __init__(self, raise_on_violation: bool = True) -> None:
        self.raise_on_violation = raise_on_violation
        #: Every violation any check_run of this validator found.
        self.violations: List[Violation] = []
        #: Runs checked and invariants evaluated, for the CLI report.
        self.runs_checked = 0
        self.checks_performed = 0
        self._sim = None
        self._links: List[object] = []
        self._ip_layers: List[object] = []
        self._pacers: List[object] = []
        self._players: List[object] = []
        self._connections: List[object] = []
        self._cc_controllers: List[object] = []
        self._repairs: List[object] = []
        self._fastpaths: List[object] = []
        # High-water marks into the shared telemetry facade: a study
        # reuses one event stream / span forest across runs, so each
        # sweep examines only what this run appended.
        self._event_seq_checked = -1
        self._spans_checked = 0
        self._stream_seq_checked = -1

    # ------------------------------------------------------------------
    # Wiring (Simulator and instrumented layers call these)
    # ------------------------------------------------------------------
    def bind(self, sim) -> None:
        """Adopt ``sim`` and reset per-run registrations; called by
        ``Simulator.__init__`` exactly like ``Telemetry.bind``."""
        self._sim = sim
        self._links = []
        self._ip_layers = []
        self._pacers = []
        self._players = []
        self._connections = []
        self._cc_controllers = []
        self._repairs = []
        self._fastpaths = []

    def register_link(self, link) -> None:
        self._links.append(link)

    def register_ip(self, ip_layer) -> None:
        self._ip_layers.append(ip_layer)

    def register_pacer(self, pacer) -> None:
        self._pacers.append(pacer)

    def register_player(self, player) -> None:
        self._players.append(player)

    def register_connection(self, connection) -> None:
        self._connections.append(connection)

    def register_cc(self, controller) -> None:
        self._cc_controllers.append(controller)

    def register_repair(self, repair) -> None:
        self._repairs.append(repair)

    def register_fastpath(self, director) -> None:
        self._fastpaths.append(director)

    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------
    def check_run(self, **context: object) -> List[Violation]:
        """Evaluate the invariant catalog over this run's objects.

        Args:
            context: labels stamped onto every violation (the study
                runner passes ``run="set1-l"``).

        Returns:
            The violations found by *this* sweep (also appended to
            :attr:`violations`).

        Raises:
            ValidationError: when violations were found and
                ``raise_on_violation`` is set.
        """
        found: List[Violation] = []
        base = tuple(context.items())

        def fail(invariant: str, message: str, **extra: object) -> None:
            found.append(Violation(invariant, message,
                                   base + tuple(extra.items())))

        self._check_links(fail)
        self._check_ip(fail)
        self._check_tcp(fail)
        self._check_pacers(fail)
        self._check_players(fail)
        self._check_events(fail)
        self._check_spans(fail)
        self._check_cc(fail)
        self._check_abr(fail)
        self._check_stream(fail)
        self._check_repair(fail)
        self._check_fastpath(fail)

        self.runs_checked += 1
        self.violations.extend(found)
        if found and self.raise_on_violation:
            raise ValidationError(found)
        return found

    # ------------------------------------------------------------------
    # Network layer: links and their queues
    # ------------------------------------------------------------------
    def _check_links(self, fail) -> None:
        for link in self._links:
            for direction in (link._forward, link._reverse):
                self.checks_performed += 1
                label = direction._label
                queue = direction._queue
                stats = queue.stats
                # Queue conservation: everything accepted either left
                # through poll() or is still resident.
                if stats.enqueued != stats.dequeued + len(queue):
                    fail("queue-conservation",
                         f"enqueued {stats.enqueued} != dequeued "
                         f"{stats.dequeued} + resident {len(queue)}",
                         link=label)
                if min(stats.enqueued, stats.dropped, stats.dequeued,
                       stats.peak_bytes) < 0:
                    fail("queue-conservation",
                         "negative queue counter", link=label,
                         enqueued=stats.enqueued, dropped=stats.dropped,
                         dequeued=stats.dequeued)
                if queue.bytes_queued < 0:
                    fail("queue-conservation",
                         f"negative resident bytes {queue.bytes_queued}",
                         link=label)
                # Link conservation: every packet offered to the
                # direction is delivered, lost (loss model, down link,
                # or queue drop), still queued, or on the wire.
                dstats = direction.stats
                accounted = (dstats.packets_delivered + dstats.packets_lost
                             + len(queue) + direction._in_flight)
                if dstats.packets_sent != accounted:
                    fail("link-conservation",
                         f"sent {dstats.packets_sent} != delivered "
                         f"{dstats.packets_delivered} + lost "
                         f"{dstats.packets_lost} + queued {len(queue)} "
                         f"+ in-flight {direction._in_flight}",
                         link=label)
                if direction._in_flight < 0:
                    fail("link-conservation",
                         f"negative in-flight count {direction._in_flight}",
                         link=label)

    # ------------------------------------------------------------------
    # IP layer: fragmentation accounting and reassembly state
    # ------------------------------------------------------------------
    def _check_ip(self, fail) -> None:
        heap_drained = (self._sim is not None
                        and self._sim.pending_events == 0)
        for ip in self._ip_layers:
            self.checks_performed += 1
            stats = ip.stats
            host = ip.host.name
            if stats.packets_sent < stats.datagrams_sent:
                fail("ip-accounting",
                     f"packets_sent {stats.packets_sent} < datagrams_sent "
                     f"{stats.datagrams_sent}", host=host)
            if stats.fragments_sent > stats.packets_sent:
                fail("ip-accounting",
                     f"fragments_sent {stats.fragments_sent} > packets_sent "
                     f"{stats.packets_sent}", host=host)
            # Every fragmented datagram emits >= 2 fragments, so the
            # fragment surplus over whole datagrams must cover them.
            whole = stats.packets_sent - stats.fragments_sent
            fragmented = stats.datagrams_sent - whole
            if fragmented > 0 and stats.fragments_sent < 2 * fragmented:
                fail("ip-accounting",
                     f"{fragmented} fragmented datagrams emitted only "
                     f"{stats.fragments_sent} fragments", host=host)
            if stats.datagrams_delivered > stats.packets_received:
                fail("ip-accounting",
                     f"datagrams_delivered {stats.datagrams_delivered} > "
                     f"packets_received {stats.packets_received}", host=host)
            if min(stats.datagrams_sent, stats.packets_sent,
                   stats.fragments_sent, stats.datagrams_delivered,
                   stats.packets_received, stats.fragments_received,
                   stats.reassembly_timeouts,
                   stats.wasted_fragment_bytes) < 0:
                fail("ip-accounting", "negative IP counter", host=host)
            # With the event heap fully drained every reassembly timer
            # has fired: a buffer still pending leaked.
            if heap_drained and ip.pending_reassemblies:
                fail("reassembly-drained",
                     f"{ip.pending_reassemblies} reassembly buffers still "
                     "pending after the event heap drained", host=host)

    # ------------------------------------------------------------------
    # TCP: sequence-space sanity
    # ------------------------------------------------------------------
    def _check_tcp(self, fail) -> None:
        for connection in self._connections:
            self.checks_performed += 1
            where = dict(host=connection._layer.host.name,
                         peer=str(connection.peer),
                         peer_port=connection.peer_port)
            if connection._send_seq < 0 or connection._recv_seq < 0:
                fail("tcp-sequence",
                     f"negative sequence space (send {connection._send_seq}"
                     f", recv {connection._recv_seq})", **where)
            for seq, acked_len, _, _, _, _ in connection._unacked:
                if seq + acked_len > connection._send_seq:
                    fail("tcp-sequence",
                         f"unacked segment [{seq}, {seq + acked_len}) "
                         f"beyond send head {connection._send_seq}", **where)
            if connection._reliability is None and connection.retransmits:
                fail("tcp-sequence",
                     f"{connection.retransmits} retransmissions without a "
                     "reliability policy", **where)
            if connection.aborted and connection.state.value != "closed":
                fail("tcp-sequence",
                     f"aborted connection left in state "
                     f"{connection.state.value}", **where)

    # ------------------------------------------------------------------
    # Pacers: the media-byte budget ledger
    # ------------------------------------------------------------------
    def _check_pacers(self, fail) -> None:
        for pacer in self._pacers:
            self.checks_performed += 1
            family = pacer.clip.family.name.lower()
            if pacer.bytes_sent < 0 or pacer.datagrams_sent < 0:
                fail("pacer-budget", "negative pacer counter", family=family)
            if pacer._budget_consumed < -FLOAT_TOLERANCE:
                fail("pacer-budget",
                     f"negative budget ledger {pacer._budget_consumed}",
                     family=family)
            # An unscaled stream's wire bytes equal its ledger exactly
            # (budget_after = consumed + size / 1.0 every tick).
            if (not pacer._rate_scaled
                    and pacer.bytes_sent != int(round(pacer._budget_consumed))):
                fail("pacer-budget",
                     f"bytes_sent {pacer.bytes_sent} != budget ledger "
                     f"{pacer._budget_consumed!r} on an unscaled stream",
                     family=family)
            # A finished pacer covered its whole clip.
            if (pacer.finished_at is not None
                    and pacer.media_bytes_remaining != 0):
                fail("pacer-budget",
                     f"finished with {pacer.media_bytes_remaining} media "
                     "bytes uncovered", family=family)
            if (not pacer._rate_scaled
                    and pacer.bytes_sent > pacer.total_media_bytes):
                fail("pacer-budget",
                     f"sent {pacer.bytes_sent} media bytes for a "
                     f"{pacer.total_media_bytes}-byte clip", family=family)

    # ------------------------------------------------------------------
    # Players: delay-buffer occupancy bounds and stats sanity
    # ------------------------------------------------------------------
    def _check_players(self, fail) -> None:
        for player in self._players:
            self.checks_performed += 1
            label = player.family.name.lower()
            buffer = player.buffer
            if buffer is not None:
                last_time = None
                for when, occupancy in buffer.occupancy_series:
                    if occupancy < -FLOAT_TOLERANCE:
                        fail("buffer-bounds",
                             f"occupancy went negative ({occupancy!r} "
                             f"media-seconds at t={when:.6f})",
                             player=label)
                        break
                    if last_time is not None and when < last_time:
                        fail("buffer-bounds",
                             f"occupancy series time regressed "
                             f"{last_time:.6f} -> {when:.6f}", player=label)
                        break
                    last_time = when
                started = buffer.playout_started_at
                if started is not None:
                    at_start = max(
                        (value for when, value in buffer.occupancy_series
                         if when == started), default=None)
                    if (at_start is None
                            or at_start < buffer.preroll_seconds
                            - FLOAT_TOLERANCE):
                        fail("buffer-bounds",
                             f"playout started with {at_start!r} buffered "
                             f"media-seconds < preroll "
                             f"{buffer.preroll_seconds}", player=label)
                if buffer.underruns < 0:
                    fail("buffer-bounds",
                         f"negative underrun count {buffer.underruns}",
                         player=label)
            stats = player.stats
            if stats is None:
                continue
            if stats.packets_lost < 0:
                fail("player-accounting",
                     f"negative loss count {stats.packets_lost}",
                     player=label)
            if (stats.first_media_at is not None and stats.eos_at is not None
                    and stats.eos_at < stats.first_media_at):
                fail("player-accounting",
                     f"eos_at {stats.eos_at:.6f} precedes first media "
                     f"{stats.first_media_at:.6f}", player=label)
            if (stats.requested_at is not None
                    and stats.first_media_at is not None
                    and stats.first_media_at < stats.requested_at):
                fail("player-accounting",
                     f"media arrived at {stats.first_media_at:.6f} before "
                     f"the request at {stats.requested_at:.6f}",
                     player=label)

    # ------------------------------------------------------------------
    # Telemetry: sim-clock monotonicity over the event stream
    # ------------------------------------------------------------------
    def _check_events(self, fail) -> None:
        telemetry = getattr(self._sim, "telemetry", None)
        if telemetry is None:
            return
        self.checks_performed += 1
        high_water = self._event_seq_checked
        last_time = None
        last_type = ""
        for event in telemetry.memory_events():
            if event.sequence <= high_water:
                continue
            if event.sequence > self._event_seq_checked:
                self._event_seq_checked = event.sequence
            # The delay buffer backdates rebuffer_start to the instant
            # the buffer actually ran dry (always earlier than the
            # arrival that observed it) — the one sanctioned exception.
            if event.type == REBUFFER_START:
                continue
            if last_time is not None and event.time < last_time:
                fail("clock-monotonic",
                     f"event {event.type}@{event.time:.9f} after "
                     f"{last_type}@{last_time:.9f} "
                     f"(sequence {event.sequence})")
                return
            last_time = event.time
            last_type = event.type

    # ------------------------------------------------------------------
    # Spans: per-ADU integrity, byte conservation, decomposition
    # ------------------------------------------------------------------
    def _check_spans(self, fail) -> None:
        telemetry = getattr(self._sim, "telemetry", None)
        recorder = telemetry.spans if telemetry is not None else None
        if recorder is None:
            return
        self.checks_performed += 1
        new_spans = recorder.spans[self._spans_checked:]
        self._spans_checked = len(recorder.spans)
        if not new_spans:
            return

        by_trace: Dict[int, List] = {}
        for span in new_spans:
            by_trace.setdefault(span.trace, []).append(span)

        sent_bytes: Dict[str, int] = {}
        delivered_bytes: Dict[str, int] = {}
        for members in by_trace.values():
            root = members[0]
            if root.kind != SPAN_ADU:
                continue  # foreign fragment of a cross-run trace
            family = str(root.attrs.get("family", "?"))
            size = int(root.attrs.get("bytes", 0))
            sent_bytes[family] = sent_bytes.get(family, 0) + size
            packets = [s for s in members if s.kind == SPAN_PACKET]
            buffers = [s for s in members if s.kind == SPAN_BUFFER]
            reassembly = [s for s in members if s.kind == SPAN_REASSEMBLY]
            seq = root.attrs.get("seq")
            # Fragment integrity: a fragment train has unique offsets
            # and offset zero present.
            offsets = [s.attrs.get("offset") for s in packets]
            if len(offsets) != len(set(offsets)):
                fail("span-integrity",
                     f"ADU seq={seq} emitted duplicate fragment offsets "
                     f"{sorted(offsets)}", family=family)
            if len(packets) > 1 and 0 not in offsets:
                fail("span-integrity",
                     f"ADU seq={seq} fragment train has no first fragment",
                     family=family)
            if len(buffers) > 1:
                fail("span-integrity",
                     f"ADU seq={seq} admitted to a delay buffer "
                     f"{len(buffers)} times", family=family)
            if len(reassembly) > 1:
                fail("span-integrity",
                     f"ADU seq={seq} reassembled {len(reassembly)} times",
                     family=family)
            if buffers:
                buffer = buffers[0]
                if buffer.status not in (STATUS_PLAYED, STATUS_DISCARDED):
                    fail("span-integrity",
                         f"ADU seq={seq} buffer span closed as "
                         f"{buffer.status!r}", family=family)
                elif root.status != buffer.status:
                    fail("span-integrity",
                         f"ADU seq={seq} root status {root.status!r} "
                         f"disagrees with buffer {buffer.status!r}",
                         family=family)
                delivered_bytes[family] = (delivered_bytes.get(family, 0)
                                           + size)
            else:
                # Never delivered: either something killed it (loss,
                # drop, reassembly timeout) or it was still in limbo
                # (post-EOS arrival, pending at the horizon); a played
                # root without a buffer span is impossible.
                if root.status == STATUS_PLAYED:
                    fail("span-integrity",
                         f"ADU seq={seq} marked played but never entered "
                         "a delay buffer", family=family)
                dead = (any(s.status in (STATUS_LOST, STATUS_DROPPED)
                            for s in packets)
                        or any(s.status == STATUS_TIMEOUT
                               for s in reassembly))
                if dead and root.status == STATUS_DISCARDED:
                    continue

        # Sender-side byte conservation: the span forest's root sizes
        # must equal what the pacers' own ledgers say went out.
        pacer_bytes: Dict[str, int] = {}
        for pacer in self._pacers:
            family = pacer.clip.family.name.lower()
            pacer_bytes[family] = (pacer_bytes.get(family, 0)
                                   + pacer.bytes_sent)
        for family, total in pacer_bytes.items():
            traced = sent_bytes.get(family, 0)
            if traced != total:
                fail("byte-conservation",
                     f"pacers sent {total} media bytes but the span "
                     f"forest accounts for {traced}", family=family)

        # Receiver-side byte conservation: every byte a player's stats
        # claim must belong to an ADU whose trace shows a delivery.
        player_bytes: Dict[str, int] = {}
        for player in self._players:
            if player.stats is None:
                continue
            label = player.family.name.lower()
            player_bytes[label] = (player_bytes.get(label, 0)
                                   + player.stats.bytes_received)
        for family, total in player_bytes.items():
            traced = delivered_bytes.get(family, 0)
            if traced != total:
                fail("byte-conservation",
                     f"player stats report {total} media bytes received "
                     f"but the span forest delivered {traced}",
                     family=family)

        # Latency decomposition: the five attributed components tile
        # the measured end-to-end latency exactly.
        for latency in attribute_latency(_SpanSlice(new_spans)):
            error = abs(latency.components_sum - latency.total)
            if error > FLOAT_TOLERANCE * (1.0 + abs(latency.total)):
                fail("span-decomposition",
                     f"ADU seq={latency.sequence} components sum to "
                     f"{latency.components_sum!r} but end-to-end latency "
                     f"is {latency.total!r}", family=latency.family)

    # ------------------------------------------------------------------
    # Congestion control: every published rate stays inside the clamp
    # ------------------------------------------------------------------
    def _check_cc(self, fail) -> None:
        if not self._cc_controllers:
            return
        from repro.cc.base import CC_MAX_RATE_BPS, CC_MIN_RATE_BPS
        for controller in self._cc_controllers:
            self.checks_performed += 1
            name = controller.cc.name
            last_time = None
            for when, rate, cwnd in controller.state_log:
                if rate is not None and not (
                        CC_MIN_RATE_BPS - FLOAT_TOLERANCE <= rate
                        <= CC_MAX_RATE_BPS + FLOAT_TOLERANCE):
                    fail("cc-bounds",
                         f"pacing rate {rate!r} bps outside "
                         f"[{CC_MIN_RATE_BPS}, {CC_MAX_RATE_BPS}] "
                         f"at t={when:.6f}", controller=name)
                    break
                if cwnd < 0:
                    fail("cc-bounds",
                         f"negative cwnd {cwnd!r} at t={when:.6f}",
                         controller=name)
                    break
                if last_time is not None and when < last_time:
                    fail("cc-bounds",
                         f"state log time regressed {last_time:.6f} -> "
                         f"{when:.6f}", controller=name)
                    break
                last_time = when

    # ------------------------------------------------------------------
    # ABR ladder: per-segment wire bytes match the rung's rate scale
    # ------------------------------------------------------------------
    def _check_abr(self, fail) -> None:
        for pacer in self._pacers:
            segments = getattr(pacer, "segment_log", None)
            if segments is None:
                continue
            self.checks_performed += 1
            family = pacer.clip.family.name.lower()
            rungs = pacer.config.rungs
            closed_wire = 0
            for position, segment in enumerate(segments):
                if segment.index != position:
                    fail("ladder-conservation",
                         f"segment log position {position} holds segment "
                         f"index {segment.index}", family=family)
                    break
                if not 0 <= segment.rung_index < len(rungs):
                    fail("ladder-conservation",
                         f"segment {segment.index} streamed at rung "
                         f"{segment.rung_index} of a {len(rungs)}-rung "
                         "ladder", family=family)
                    break
                if segment.end_bytes is None:
                    if position != len(segments) - 1:
                        fail("ladder-conservation",
                             f"segment {segment.index} never closed but "
                             "a later segment streamed", family=family)
                    break
                # Wire bytes are the ledger delta scaled by the rung:
                # every tick consumes size / scale budget for size wire
                # bytes, so the two agree to float roundoff.
                wire = segment.wire_bytes
                budget_delta = segment.end_budget - segment.start_budget
                if abs(wire - segment.scale * budget_delta) > 1.0:
                    fail("ladder-conservation",
                         f"segment {segment.index} sent {wire} wire bytes "
                         f"but scale {segment.scale} x budget "
                         f"{budget_delta!r} predicts "
                         f"{segment.scale * budget_delta!r}", family=family)
                closed_wire += wire
            # A finished ladder's closed segments cover exactly what the
            # pacer's own ledger says went out.
            if (pacer.finished_at is not None and segments
                    and segments[-1].end_bytes is not None
                    and closed_wire != pacer.bytes_sent):
                fail("ladder-conservation",
                     f"closed segments total {closed_wire} wire bytes but "
                     f"the pacer sent {pacer.bytes_sent}", family=family)

    # ------------------------------------------------------------------
    # Streaming summary: the online fold equals a refold of the run's
    # buffered events
    # ------------------------------------------------------------------
    def _check_stream(self, fail) -> None:
        """The bounded-memory fold must lose nothing the buffer kept.

        When a run streams (a :class:`StreamingSink` on the bus) *and*
        buffers (a :class:`MemorySink` on the same bus), the two views
        saw the identical event sequence — so refolding this run's
        buffered slice into a fresh summary must reproduce the online
        summary exactly, section for section.  Spans are excluded on
        both sides: the study runner folds them after this sweep runs.
        """
        telemetry = getattr(self._sim, "telemetry", None)
        if telemetry is None:
            return
        sinks = telemetry.bus._sinks
        events = telemetry.memory_events()
        high_water = self._stream_seq_checked
        if events:
            self._stream_seq_checked = max(self._stream_seq_checked,
                                           events[-1].sequence)
        streaming = [sink for sink in sinks
                     if isinstance(sink, StreamingSink)]
        if not streaming:
            return
        if not any(isinstance(sink, MemorySink) for sink in sinks):
            return  # stream-only run: nothing buffered to refold
        if telemetry.dropped_events():
            # An overflowed ring cannot be refolded faithfully; the
            # invariant is unverifiable here, not violated.
            return
        run_events = [event for event in events
                      if event.sequence > high_water]
        for sink in streaming:
            self.checks_performed += 1
            refold = fold_events(run_events)
            if refold.as_dict() != sink.summary.as_dict():
                fail("stream-equivalence",
                     f"online fold (fingerprint "
                     f"{sink.summary.fingerprint()}, "
                     f"{sink.summary.events_folded} events) differs "
                     f"from a refold of the run's {len(run_events)} "
                     f"buffered events (fingerprint "
                     f"{refold.fingerprint()})")

    # ------------------------------------------------------------------
    # Loss repair: the repair byte ledger and no-duplication guarantee
    # ------------------------------------------------------------------
    def _check_repair(self, fail) -> None:
        # Sender side: repair spending reconciles three ways — the
        # budget ledger, the per-kind byte counters, and the pacer's
        # wire-side tallies all describe the same datagrams.
        for repair in self._repairs:
            self.checks_performed += 1
            family = repair.family
            repair_bytes = repair.parity_bytes_sent + repair.rtx_bytes_sent
            if min(repair.parity_groups_sent, repair.parity_bytes_sent,
                   repair.rtx_sent, repair.rtx_bytes_sent,
                   repair.budget_spent, repair.budget_denied,
                   repair.nacks_received, repair.nack_sequences_received,
                   repair.unknown_sequences) < 0:
                fail("fec-conservation", "negative sender repair counter",
                     family=family)
            if repair.budget_spent != repair_bytes:
                fail("fec-conservation",
                     f"budget ledger {repair.budget_spent} != parity "
                     f"{repair.parity_bytes_sent} + rtx "
                     f"{repair.rtx_bytes_sent}", family=family)
            if repair.budget_spent > repair.config.repair_budget_bytes:
                fail("fec-conservation",
                     f"spent {repair.budget_spent} repair bytes against a "
                     f"{repair.config.repair_budget_bytes}-byte budget",
                     family=family)
            pacer = repair.pacer
            if pacer is not None:
                if pacer.repair_bytes_sent != repair_bytes:
                    fail("fec-conservation",
                         f"pacer wired {pacer.repair_bytes_sent} repair "
                         f"bytes but the repair ledger accounts for "
                         f"{repair_bytes}", family=family)
                datagrams = repair.parity_groups_sent + repair.rtx_sent
                if pacer.repair_datagrams_sent != datagrams:
                    fail("fec-conservation",
                         f"pacer wired {pacer.repair_datagrams_sent} repair "
                         f"datagrams but the ledger counts {datagrams}",
                         family=family)
        # Receiver side: a recovered sequence is recovered exactly once,
        # never re-requested, and never simultaneously abandoned.
        for player in self._players:
            repair = getattr(player, "_repair", None)
            if repair is None:
                continue
            self.checks_performed += 1
            label = player.family.name.lower()
            recovered = repair.recovered_parity + repair.recovered_rtx
            if repair.nack.requests_after_repair:
                fail("repair-no-duplication",
                     f"{repair.nack.requests_after_repair} NACK requests "
                     "named already-recovered sequences", player=label)
            if len(repair.nack.recovered) != recovered:
                fail("repair-no-duplication",
                     f"recovered set holds {len(repair.nack.recovered)} "
                     f"sequences but counters claim {recovered}",
                     player=label)
            overlap = repair.nack.recovered & set(repair.nack.abandoned)
            if overlap:
                fail("repair-no-duplication",
                     f"{len(overlap)} sequences both recovered and "
                     f"abandoned (e.g. {min(overlap)})", player=label)
            if (repair.abandoned_deadline + repair.abandoned_retries
                    != len(repair.nack.abandoned)):
                fail("repair-no-duplication",
                     f"abandonment counters "
                     f"{repair.abandoned_deadline}+{repair.abandoned_retries}"
                     f" != abandoned set {len(repair.nack.abandoned)}",
                     player=label)
            if (player.stats is not None
                    and player.stats.packets_recovered != recovered):
                fail("repair-no-duplication",
                     f"stats report {player.stats.packets_recovered} "
                     f"recovered packets but the repair ledger holds "
                     f"{recovered}", player=label)

    def _check_fastpath(self, fail) -> None:
        # The flow-level director keeps a ledger of every accepted
        # train: the exact inputs it fed the analytic recursion and the
        # arrivals it committed.  Refolding the ledger through
        # train_schedule, the reference the director's fused walk
        # inlines, must reproduce the arrivals bit for bit — any drift
        # means the walk's float operations left the reference's, or
        # the director mutated direction state between the speculative
        # walk and the commit.  Honest skip: a run where every train
        # fell back (or the fast path was off) leaves an empty ledger
        # and sweeps nothing.
        for director in self._fastpaths:
            self.checks_performed += 1
            packets = 0
            for index, record in enumerate(director.ledger):
                packets += len(record.arrivals)
                if record.refold() != record.arrivals:
                    fail("fastpath-equivalence",
                         f"train {index} (sent {record.sent_at:.6f}s) "
                         "refolds to different arrivals than the "
                         "director committed")
            if packets != director.packets_fast:
                fail("fastpath-equivalence",
                     f"ledger holds {packets} packets but the director "
                     f"claims {director.packets_fast} delivered fast")
            reasons = sum(director.fallback_reasons.values())
            if reasons != director.trains_fallback:
                fail("fastpath-equivalence",
                     f"fallback reasons account for {reasons} trains "
                     f"but {director.trains_fallback} fell back")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> str:
        """Human-readable sweep summary for the CLI."""
        lines = [f"validated {self.runs_checked} run"
                 f"{'s' if self.runs_checked != 1 else ''}, "
                 f"{self.checks_performed} object sweeps, "
                 f"{len(self.violations)} violation"
                 f"{'s' if len(self.violations) != 1 else ''}"]
        by_invariant: Dict[str, int] = {}
        for violation in self.violations:
            by_invariant[violation.invariant] = (
                by_invariant.get(violation.invariant, 0) + 1)
        for name in INVARIANT_NAMES:
            marker = by_invariant.get(name, 0)
            lines.append(f"  {name:<22} "
                         f"{'ok' if not marker else f'{marker} VIOLATED'}")
        for violation in self.violations:
            lines.append(f"  ! {violation}")
        return "\n".join(lines)
