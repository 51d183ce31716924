"""The instrumented streaming client.

One :class:`StreamingClient` plays one clip: it drives the control
exchange (DESCRIBE → SETUP → PLAY) over TCP, receives media over UDP,
feeds the delay buffer, tracks frame deadlines, and fills in a
:class:`~repro.players.stats.PlayerStats`.  MediaTracker and
RealTracker are thin subclasses differing exactly where the paper's
tools differed: MediaTracker sees application packets through the
interleaving batcher; RealTracker cannot observe them at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.errors import ProtocolError, SocketError
from repro.media.clip import PlayerFamily
from repro.netsim.addressing import IPAddress
from repro.netsim.node import Host
from repro.netsim.tcp import TcpConnection
from repro.netsim.udp import UdpDatagram
from repro.players.buffer import DelayBuffer
from repro.players.interleave import BatchingReceiver
from repro.players.quality import QualityController
from repro.players.stats import PacketReceipt, PlayerStats
from repro.servers.control import (
    ControlRequest,
    ControlResponse,
    RTSP_PORT,
)
from repro.telemetry.events import (
    EOS_TIMEOUT,
    KEEPALIVE_MISS,
    PLAYER_STALLED,
    QOE_SCORE,
    SESSION_LOST,
)

if TYPE_CHECKING:  # pragma: no cover - imported where repair is armed
    from repro.repair.base import RepairConfig
    from repro.repair.receiver import ReceiverRepair, Recovery

DoneCallback = Callable[[PlayerStats], None]

#: A frame whose data arrives after its playout deadline plus this
#: slack is counted late (quality degradation), not played.
LATE_TOLERANCE = 0.25


# The robustness policy's timings (see StreamingClient's ``robustness``).

#: Seconds between KEEPALIVE probes once the stream is playing.
KEEPALIVE_INTERVAL = 2.0
#: Seconds a KEEPALIVE may go unanswered before it counts as a miss.
REQUEST_TIMEOUT = 4.0
#: Consecutive misses tolerated before the session is declared lost and
#: playback closes deterministically.
MAX_RETRIES = 5
#: Seconds without any media arrival after which the stall watchdog
#: ends playback (instead of hanging until the experiment horizon).
STALL_TIMEOUT = 15.0
#: Rebuffer re-entry: media seconds that must accumulate after an
#: underrun before playback resumes (see
#: :class:`~repro.players.buffer.DelayBuffer`).
RESUME_THRESHOLD_SECONDS = 2.0


class StreamingClient:
    """Base player: control/session plumbing and statistics.

    Args:
        host: the client host.
        server: the streaming server's address.
        control_port: the server's control port.
        preroll_seconds: delay-buffer preroll target.
        robustness: arm the graceful-degradation policy for a client
            under faults, timed by the module constants above.  False
            (the default) keeps the historical behavior exactly: no
            keepalives, no watchdog, no quality ladder, no extra
            scheduled events — byte-identical no-fault runs.  The
            experiment runner sets it when a fault scenario is
            attached, and always on the ABR transport.
    """

    #: Which product this client models; subclasses set it.
    family: PlayerFamily
    #: Whether application packets are released in interleave batches.
    uses_interleaving = False

    def __init__(self, host: Host, server: IPAddress,
                 control_port: int = RTSP_PORT,
                 preroll_seconds: float = 5.0,
                 feedback_interval: Optional[float] = None,
                 transport: str = "UDP",
                 robustness: bool = False,
                 repair: Optional[RepairConfig] = None) -> None:
        if transport not in ("UDP", "TCP"):
            raise ProtocolError(f"unknown media transport {transport!r}")
        self.host = host
        self.server = server
        self.control_port = control_port
        self.preroll_seconds = preroll_seconds
        #: Media transport; the paper forced UDP, TCP is the product's
        #: other mode (see repro.servers.tcp_media).
        self.transport = transport
        #: Seconds between receiver reports; None disables feedback
        #: (the paper's base experiments ran without media scaling).
        self.feedback_interval = feedback_interval
        self._reported_received = 0
        self._reported_lost = 0
        self._reported_bytes = 0
        # Congestion-control signals, populated only when the server
        # stamps ``PayloadMeta.sent_at`` (cc runs); otherwise the
        # reports carry their "no cc" defaults.
        self._cc_transit: Optional[float] = None
        self._cc_jitter: Optional[float] = None
        self.stats: Optional[PlayerStats] = None
        self.buffer: Optional[DelayBuffer] = None
        self.interleaver: Optional[BatchingReceiver] = None
        self.done = False
        self.session_id: Optional[int] = None
        self._on_done: Optional[DoneCallback] = None
        self._clip_title: Optional[str] = None
        self._connection: Optional[TcpConnection] = None
        self._media_socket = None
        self._telemetry = None
        self._spans = None
        #: (buffer span, root ADU span) pairs closed at finish, once
        #: each media chunk's playout instant is known.
        self._open_buffer_spans: List[Tuple[object, object]] = []
        self._last_sequence: Optional[int] = None
        self._last_media_time = 0.0
        #: (frame_number, app_time) pairs, classified at finalize time.
        self._frame_arrivals: List[Tuple[int, float]] = []
        # --- loss repair (inert when repair is None or null) ---
        self.repair_config = (repair if repair is not None
                              and not repair.is_null else None)
        self._repair: Optional[ReceiverRepair] = None
        # --- graceful degradation (inert unless robustness) ---
        self.robustness = robustness
        self.quality_controller: Optional[QualityController] = None
        self.session_lost = False
        self.stalled = False
        self._last_media_at: Optional[float] = None
        self._keepalive_acked_at: Optional[float] = None
        self._keepalive_misses = 0
        if host.sim.validator is not None:
            host.sim.validator.register_player(self)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def play(self, clip_title: str,
             on_done: Optional[DoneCallback] = None) -> None:
        """Start playing ``clip_title`` from the server.

        Raises:
            ProtocolError: if this client is already playing a clip
                (each client instance plays exactly one, like one
                playlist entry in the paper's trackers).
        """
        if self._clip_title is not None:
            raise ProtocolError("client already playing; use a new instance")
        self._clip_title = clip_title
        self._on_done = on_done
        self._requested_at = self.host.sim.now
        connection = self.host.tcp.connect(self.server, self.control_port)
        connection.on_established = self._on_established
        connection.on_message = self._on_response
        self._connection = connection

    def finalize(self) -> PlayerStats:
        """Force end-of-playback accounting (normally done at EOS).

        Safe to call on a finished client; used by experiment runners
        as a timeout fallback when loss eats the EOS datagram.  That
        fallback is no longer silent: it emits an ``eos_timeout`` trace
        event and records a *deterministic* stop time — the last media
        arrival, a simulation quantity — rather than leaving the end of
        the stream undefined by whenever the runner got around to
        calling this.

        Raises:
            ProtocolError: if playback never got far enough to have
                statistics (no DESCRIBE response yet).
        """
        if self.stats is None:
            raise ProtocolError("no statistics: playback never started")
        if not self.done:
            if self.stats.eos_at is None and self._last_media_at is not None:
                self.stats.eos_at = self._last_media_at
            if self._telemetry is not None:
                self._telemetry.emit(
                    EOS_TIMEOUT, player=self.family.name.lower(),
                    stop_time=(None if self.stats.eos_at is None
                               else round(self.stats.eos_at, 9)))
            self._finish()
        return self.stats

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _on_established(self, connection: TcpConnection) -> None:
        request = ControlRequest(method="DESCRIBE",
                                 clip_title=self._clip_title)
        connection.send_message(request, request.wire_bytes)

    def _on_response(self, connection: TcpConnection,
                     message: object) -> None:
        if not isinstance(message, ControlResponse):
            return
        if message.method == "KEEPALIVE":
            if message.ok:
                self._keepalive_acked_at = self.host.sim.now
                self._keepalive_misses = 0
            else:
                # The server forgot us (crash-restart): the session is
                # gone for good, no point probing further.
                self._session_lost()
            return
        if not message.ok:
            raise ProtocolError(
                f"{message.method} failed: {message.status} {message.reason}")
        if message.method == "DESCRIBE":
            self._handle_described(message)
        elif message.method == "SETUP":
            self._handle_setup_ok(message)
        elif message.method == "PLAY":
            self._start_feedback()
            self._start_robustness()
            self._on_playing()
        # TEARDOWN and SEGMENT acks need no client action.

    def _handle_described(self, response: ControlResponse) -> None:
        if response.description is None:
            raise ProtocolError("DESCRIBE response carried no description")
        self.stats = PlayerStats(response.description,
                                 transport=self.transport)
        self.stats.requested_at = self._requested_at
        telemetry = self.host.sim.telemetry
        self._telemetry = telemetry
        self._spans = telemetry.spans if telemetry is not None else None
        resume_threshold = (RESUME_THRESHOLD_SECONDS
                            if self.robustness else None)
        self.buffer = DelayBuffer(self.preroll_seconds, telemetry=telemetry,
                                  label=self.family.name.lower(),
                                  resume_threshold_seconds=resume_threshold)
        if self.robustness:
            self.quality_controller = QualityController(
                telemetry=telemetry, label=self.family.name.lower())
        if telemetry is not None:
            label = self.family.name.lower()
            telemetry.registry.track("player.packets", self.stats,
                                     "packets_received", player=label)
            telemetry.registry.track("player.media_bytes", self.stats,
                                     "bytes_received", player=label)
        if self.uses_interleaving:
            self.interleaver = BatchingReceiver()
        client_port = None
        if self.transport == "UDP":
            self._media_socket = self.host.udp.bind_ephemeral()
            self._media_socket.on_receive = self._on_media
            client_port = self._media_socket.port
        request = ControlRequest(method="SETUP",
                                 clip_title=self._clip_title,
                                 client_media_port=client_port,
                                 transport=self.transport)
        self._connection.send_message(request, request.wire_bytes)

    def _handle_setup_ok(self, response: ControlResponse) -> None:
        self.session_id = response.session_id
        if self.repair_config is not None:
            from repro.repair.receiver import ReceiverRepair

            self._repair = ReceiverRepair(
                config=self.repair_config, sim=self.host.sim,
                family=self.family.name.lower(),
                session_id=self.session_id or 0,
                nominal_fps=self.stats.description.nominal_fps,
                send_nack=self._send_nack,
                playout_start=self._playout_start,
                telemetry=self._telemetry)
        if self.transport == "TCP":
            self._connect_media_channel(response.server_media_port)
            return
        self._send_play()

    def _send_play(self) -> None:
        request = ControlRequest(method="PLAY", session_id=self.session_id)
        self._connection.send_message(request, request.wire_bytes)

    def _connect_media_channel(self, server_media_port: int) -> None:
        """TCP transport: open the media connection, then PLAY."""
        from repro.servers.tcp_media import TcpMediaReceiver

        media_connection = self.host.tcp.connect(self.server,
                                                 server_media_port)

        def on_established(connection) -> None:
            receiver = TcpMediaReceiver(self.host, connection,
                                        connection.local_port)
            receiver.on_receive = self._on_media
            self._media_socket = receiver
            self._send_play()

        media_connection.on_established = on_established

    # ------------------------------------------------------------------
    # Media plane
    # ------------------------------------------------------------------
    def _on_media(self, datagram: UdpDatagram) -> None:
        if self.done or self.stats is None:
            return
        if datagram.payload.kind == "media-eos":
            self.stats.eos_at = datagram.arrival_time
            self._finish()
            return
        if datagram.payload.kind == "fec-parity":
            if self._repair is not None:
                recoveries = self._repair.on_parity(
                    datagram.payload, datagram.payload_bytes,
                    datagram.arrival_time)
                self._apply_recoveries(recoveries, datagram.arrival_time)
            return
        if datagram.payload.kind == "media-rtx":
            if self._repair is not None:
                recovery = self._repair.on_retransmit(
                    datagram.payload, datagram.payload_bytes,
                    datagram.arrival_time)
                if recovery is not None:
                    self._apply_recoveries([recovery],
                                           datagram.arrival_time)
            return
        if datagram.payload.kind != "media":
            return
        now = datagram.arrival_time
        self._last_media_at = now
        if datagram.payload.sent_at is not None:
            # RFC 3550-style interarrival jitter over the one-way
            # transit; feeds the cc fields of the receiver reports.
            transit = now - datagram.payload.sent_at
            if self._cc_transit is not None:
                deviation = abs(transit - self._cc_transit)
                jitter = self._cc_jitter or 0.0
                self._cc_jitter = jitter + (deviation - jitter) / 16.0
            self._cc_transit = transit
        app_time = now
        if self.interleaver is not None:
            app_time = self.interleaver.receive(now)
        sequence = datagram.payload.adu_sequence or 0
        if self._last_sequence is not None:
            gap = sequence - self._last_sequence - 1
            if gap > 0:
                self.stats.packets_lost += gap
                if self._repair is not None:
                    self._repair.on_gap(self._last_sequence + 1,
                                        sequence - 1,
                                        datagram.payload.media_time or 0.0,
                                        now)
        self._last_sequence = sequence
        if self._repair is not None:
            self._repair.on_media(sequence, datagram.payload_bytes)
        self.stats.record_receipt(PacketReceipt(
            sequence=sequence, network_time=now, app_time=app_time,
            payload_bytes=datagram.payload_bytes,
            fragment_count=datagram.fragment_count,
            first_packet_time=datagram.first_packet_time))
        # Media-seconds accounting for the delay buffer.
        media_time = datagram.payload.media_time or 0.0
        delta = max(0.0, media_time - self._last_media_time)
        if self._spans is not None and datagram.payload.span is not None:
            # This chunk's media starts at the *previous* media time;
            # its playout instant is playout_start + that offset.
            span = self._spans.buffer_admitted(
                datagram.payload.span, now, self.family.name.lower(),
                self._last_media_time)
            self._open_buffer_spans.append((span, datagram.payload.span))
        self._last_media_time = media_time
        self.buffer.add_media(now, delta)
        for frame_number in datagram.payload.frame_numbers:
            self._frame_arrivals.append((frame_number, app_time))

    # ------------------------------------------------------------------
    # Loss repair (repair != None only)
    # ------------------------------------------------------------------
    def _playout_start(self) -> Optional[float]:
        return (self.buffer.playout_started_at
                if self.buffer is not None else None)

    def _send_nack(self, request) -> None:
        """Deliver a NACK to the server over the control channel."""
        if self.done or self._connection is None:
            return
        self._safe_send(request, request.wire_bytes)

    def _apply_recoveries(self, recoveries: List[Recovery],
                          now: float) -> None:
        """Fold repaired sequences into playback state.

        Recovered data counts in ``packets_recovered`` (the paper's
        Table 1 statistic), never in ``packets_received`` — repair
        traffic stays outside the media byte-conservation ledgers.
        Frames ride to the usual deadline classifier, and any media
        seconds the loss left missing are healed into the delay
        buffer.
        """
        for recovery in recoveries:
            self.stats.packets_recovered += 1
            for frame_number in recovery.frame_numbers:
                self._frame_arrivals.append((frame_number, now))
            delta = recovery.media_time - self._last_media_time
            if delta > 0:
                self._last_media_time = recovery.media_time
                self.buffer.add_media(now, delta)

    # ------------------------------------------------------------------
    # Receiver reports (media scaling feedback, paper §VI)
    # ------------------------------------------------------------------
    def _start_feedback(self) -> None:
        if self.feedback_interval is None:
            return
        self.host.sim.schedule_in(self.feedback_interval,
                                  self._send_feedback)

    def _send_feedback(self) -> None:
        if self.done or self.stats is None or self._connection is None:
            return
        from repro.servers.feedback import ReceiverReport

        received = self.stats.packets_received
        lost = self.stats.packets_lost
        media_bytes = self.stats.bytes_received
        report = ReceiverReport(
            session_id=self.session_id or 0,
            sent_at=self.host.sim.now,
            packets_received=received, packets_lost=lost,
            interval_received=received - self._reported_received,
            interval_lost=lost - self._reported_lost,
            interval_bytes=media_bytes - self._reported_bytes,
            delay_sample=self._cc_transit,
            jitter_sample=self._cc_jitter)
        self._reported_received = received
        self._reported_lost = lost
        self._reported_bytes = media_bytes
        if self.quality_controller is not None:
            interval_total = report.interval_received + report.interval_lost
            loss_fraction = (report.interval_lost / interval_total
                             if interval_total > 0 else 0.0)
            rebuffering = (self.buffer.rebuffering
                           if self.buffer is not None else False)
            self.quality_controller.observe(self.host.sim.now, loss_fraction,
                                            rebuffering=rebuffering)
        self._safe_send(report, report.wire_bytes)
        self.host.sim.schedule_in(self.feedback_interval,
                                  self._send_feedback)

    def _on_playing(self) -> None:
        """Hook: media is about to flow (PLAY acknowledged).  The ABR
        tracker uses this to request its first segment."""

    # ------------------------------------------------------------------
    # Graceful degradation (robustness only)
    # ------------------------------------------------------------------
    def _safe_send(self, message: object, wire_bytes: int) -> bool:
        """Send on the control connection, tolerating a dead one.

        With no robustness policy the historical behavior stands: a
        send on a closed connection raises.  With one, it returns False
        and the keepalive machinery is what notices the dead session.
        """
        try:
            self._connection.send_message(message, wire_bytes)
            return True
        except SocketError:
            if not self.robustness:
                raise
            return False

    def _start_robustness(self) -> None:
        if not self.robustness:
            return
        self.host.sim.schedule_in(KEEPALIVE_INTERVAL, self._keepalive_tick)
        self.host.sim.schedule_in(STALL_TIMEOUT, self._watchdog_tick)

    def _keepalive_tick(self) -> None:
        if self.done:
            return
        request = ControlRequest(method="KEEPALIVE",
                                 session_id=self.session_id)
        sent_at = self.host.sim.now
        if not self._safe_send(request, request.wire_bytes):
            # Control connection is dead; the check below counts it
            # like an unanswered probe.
            pass
        self.host.sim.schedule_in(REQUEST_TIMEOUT, self._keepalive_check,
                                  sent_at)
        self.host.sim.schedule_in(KEEPALIVE_INTERVAL, self._keepalive_tick)

    def _keepalive_check(self, sent_at: float) -> None:
        if self.done:
            return
        if (self._keepalive_acked_at is not None
                and self._keepalive_acked_at >= sent_at):
            return
        self._keepalive_misses += 1
        if self._telemetry is not None:
            self._telemetry.emit(KEEPALIVE_MISS,
                                 player=self.family.name.lower(),
                                 misses=self._keepalive_misses)
        if self._keepalive_misses > MAX_RETRIES:
            self._session_lost()

    def _session_lost(self) -> None:
        """Bounded retries exhausted: close playback deterministically."""
        if self.done or self.session_lost:
            return
        self.session_lost = True
        if self._telemetry is not None:
            self._telemetry.emit(SESSION_LOST,
                                 player=self.family.name.lower(),
                                 misses=self._keepalive_misses)
        if self.stats is not None:
            if self.stats.eos_at is None and self._last_media_at is not None:
                self.stats.eos_at = self._last_media_at
            self._finish()
        else:
            self.done = True

    def _watchdog_tick(self) -> None:
        if self.done:
            return
        last = (self._last_media_at if self._last_media_at is not None
                else self._requested_at)
        idle = self.host.sim.now - last
        if idle < STALL_TIMEOUT:
            self.host.sim.schedule_in(STALL_TIMEOUT - idle,
                                      self._watchdog_tick)
            return
        self.stalled = True
        if self._telemetry is not None:
            self._telemetry.emit(PLAYER_STALLED,
                                 player=self.family.name.lower(),
                                 idle_seconds=round(idle, 9))
        if self.stats is not None:
            # Deterministic stop: the stream died at its last arrival,
            # not at whatever instant the watchdog happened to fire.
            if self.stats.eos_at is None and self._last_media_at is not None:
                self.stats.eos_at = self._last_media_at
            self._finish()
        else:
            self.done = True

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def _finish(self) -> None:
        self.done = True
        if self._repair is not None:
            self._repair.close()
        self._classify_frames()
        if self._telemetry is not None:
            label = self.family.name.lower()
            self._telemetry.counter("player.frames_played",
                                    player=label).inc(
                                        len(self.stats.frame_plays))
            self._telemetry.counter("player.frames_late",
                                    player=label).inc(self.stats.frames_late)
        if self.buffer is not None:
            self.stats.playout_started_at = self.buffer.playout_started_at
            self.stats.rebuffer_seconds = (
                self.buffer.total_rebuffer_seconds(self.host.sim.now))
        if self._repair is not None and self._telemetry is not None:
            qoe = self.stats.qoe()
            self._telemetry.emit(
                QOE_SCORE, player=self.family.name.lower(),
                score=round(qoe.score, 9),
                startup_delay=round(qoe.startup_delay, 9),
                rebuffer_ratio=round(qoe.rebuffer_ratio, 9),
                frame_delivery=round(qoe.frame_delivery, 9),
                repair_ratio=round(qoe.repair_ratio, 9))
        if self._spans is not None and self._open_buffer_spans:
            playout = (self.buffer.playout_started_at
                       if self.buffer is not None else None)
            for span, root in self._open_buffer_spans:
                playout_time = (None if playout is None
                                else playout + span.attrs["media_begin"])
                self._spans.buffer_released(span, root, playout_time)
            self._open_buffer_spans = []
        if self.session_id is not None and self._connection is not None:
            request = ControlRequest(method="TEARDOWN",
                                     session_id=self.session_id)
            self._safe_send(request, request.wire_bytes)
        if self._on_done is not None:
            self._on_done(self.stats)

    def _classify_frames(self) -> None:
        """Sort frame arrivals into on-time plays and late drops.

        A frame's deadline is playout start plus its media timestamp.
        If the preroll never filled (tiny/broken stream), playout is
        taken to start at the first arrival.
        """
        fps = max(self.stats.description.nominal_fps, 1.0)
        playout_start = None
        if self.buffer is not None:
            playout_start = self.buffer.playout_started_at
        if playout_start is None:
            if not self._frame_arrivals:
                return
            playout_start = min(app for _, app in self._frame_arrivals)
        for frame_number, app_time in sorted(self._frame_arrivals):
            media_time = frame_number / fps
            deadline = playout_start + media_time
            if app_time <= deadline + LATE_TOLERANCE:
                self.stats.record_frame_play(media_time)
            else:
                self.stats.frames_late += 1
