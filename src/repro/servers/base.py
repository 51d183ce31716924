"""The streaming-server base: control protocol handling and sessions.

Concrete servers (:class:`~repro.servers.wms.WindowsMediaServer`,
:class:`~repro.servers.realserver.RealServer`) differ only in the pacer
they attach on PLAY; everything else — clip registry, DESCRIBE/SETUP/
PLAY/TEARDOWN handling, per-session UDP sockets — lives here.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.errors import MediaError
from repro.media.clip import Clip, PlayerFamily
from repro.media.codec import SyntheticCodec, nominal_frame_rate
from repro.media.frames import FrameSchedule
from repro.netsim.node import Host
from repro.netsim.tcp import TcpConnection
from repro.servers.control import (
    ClipDescription,
    ControlRequest,
    ControlResponse,
    RTSP_PORT,
)
from repro.servers.pacing import Pacer
from repro.servers.session import ServerSession, SessionState
from repro.telemetry.events import (
    SERVER_CRASHED,
    SERVER_PAUSED,
    SERVER_RESUMED,
)


class StreamingServer:
    """Base streaming server bound to one host.

    Args:
        host: the simulated host the server runs on.
        control_port: TCP port for the control protocol.
        codec: optional codec override (tests inject deterministic ones).
        scaling_policy_factory: when given, each PLAY attaches a fresh
            media-scaling policy fed by the client's receiver reports
            (the paper's §VI media-scaling capability).
        cc_factory: when given, each PLAY builds a fresh
            :class:`~repro.cc.CongestionControl` and wires it to the
            session's pacer through a
            :class:`~repro.cc.CcSessionController`; receiver reports
            then drive rate control in addition to media scaling.
        repair_factory: when given, each PLAY builds a fresh
            :class:`~repro.repair.sender.SenderRepair` and attaches it
            to the session's pacer; the server then answers the
            client's NACKs out of that session's send history.
    """

    #: Which player family's clips this server serves; subclasses set it.
    family: PlayerFamily

    def __init__(self, host: Host, control_port: int = RTSP_PORT,
                 codec: Optional[SyntheticCodec] = None,
                 scaling_policy_factory=None, cc_factory=None,
                 repair_factory=None) -> None:
        self.host = host
        self.control_port = control_port
        rng_name = f"server:{host.name}:{control_port}"
        self._rng = host.sim.streams.stream(rng_name)
        self._codec = codec or SyntheticCodec(
            host.sim.streams.stream(rng_name + ":codec"))
        self._clips: Dict[str, Clip] = {}
        self._schedules: Dict[str, FrameSchedule] = {}
        self.sessions: Dict[int, ServerSession] = {}
        self._next_session_id = 1
        #: Listening ports for TCP media channels (one per session).
        self._next_media_port = control_port + 1000
        self.scaling_policy_factory = scaling_policy_factory
        self.scaling_controllers: Dict[int, object] = {}
        self.cc_factory = cc_factory
        self.cc_controllers: Dict[int, object] = {}
        self.repair_factory = repair_factory
        self.repair_controllers: Dict[int, object] = {}
        #: Fault state: a crashed server drops every request unanswered
        #: until :meth:`restart`.
        self.crashed = False
        host.tcp.listen(control_port, self._on_connection)

    # ------------------------------------------------------------------
    # Content management
    # ------------------------------------------------------------------
    def add_clip(self, clip: Clip) -> None:
        """Publish a clip; its frame schedule is encoded once, here.

        Raises:
            MediaError: if the clip's family does not match the server
                (a RealServer cannot serve Windows Media content).
        """
        if clip.family != self.family:
            raise MediaError(
                f"{type(self).__name__} cannot serve "
                f"{clip.family.display_name} content")
        if clip.title in self._clips:
            raise MediaError(f"clip {clip.title!r} already published")
        self._clips[clip.title] = clip
        self._schedules[clip.title] = self._codec.encode(clip)

    def clip_titles(self):
        return sorted(self._clips)

    # ------------------------------------------------------------------
    # Control protocol
    # ------------------------------------------------------------------
    def _on_connection(self, connection: TcpConnection) -> None:
        connection.on_message = self._on_request

    def _on_request(self, connection: TcpConnection,
                    message: object) -> None:
        if self.crashed:
            # A crashed server answers nothing: requests and keepalives
            # time out on the client side, which is the whole point.
            return
        if not isinstance(message, ControlRequest):
            self._on_feedback(message)
            return
        handler = {
            "DESCRIBE": self._handle_describe,
            "SETUP": self._handle_setup,
            "PLAY": self._handle_play,
            "TEARDOWN": self._handle_teardown,
            "KEEPALIVE": self._handle_keepalive,
        }.get(message.method)
        if handler is None:
            handler = self._extra_handlers().get(message.method)
        if handler is None:
            response = ControlResponse(status=501, method=message.method,
                                       reason="not implemented")
        else:
            response = handler(connection, message)
        connection.send_message(response, response.wire_bytes)

    def _on_feedback(self, message: object) -> None:
        """A receiver report or a NACK, which only a client with
        feedback or repair armed sends; anything else is ignored."""
        from repro.repair.nack import NackRequest
        from repro.servers.feedback import ReceiverReport

        if isinstance(message, ReceiverReport):
            controller = self.scaling_controllers.get(message.session_id)
            if controller is not None:
                controller.on_report(message, self.host.sim.now)
            cc_controller = self.cc_controllers.get(message.session_id)
            if cc_controller is not None:
                cc_controller.on_report(message, self.host.sim.now)
        elif isinstance(message, NackRequest):
            repair = self.repair_controllers.get(message.session_id)
            if repair is not None:
                repair.on_nack(message, self.host.sim.now)

    def _handle_describe(self, connection: TcpConnection,
                         request: ControlRequest) -> ControlResponse:
        clip = self._clips.get(request.clip_title or "")
        if clip is None:
            return ControlResponse(status=404, method="DESCRIBE",
                                   reason=f"no clip {request.clip_title!r}")
        schedule = self._schedules[clip.title]
        description = ClipDescription(
            title=clip.title, genre=clip.genre, duration=clip.duration,
            encoded_kbps=clip.encoded_kbps,
            advertised_kbps=clip.encoding.advertised_kbps,
            nominal_fps=schedule.nominal_fps)
        return ControlResponse(status=200, method="DESCRIBE",
                               description=description)

    def _handle_setup(self, connection: TcpConnection,
                      request: ControlRequest) -> ControlResponse:
        clip = self._clips.get(request.clip_title or "")
        if clip is None:
            return ControlResponse(status=404, method="SETUP",
                                   reason=f"no clip {request.clip_title!r}")
        if request.transport == "TCP":
            return self._setup_tcp_session(connection, request, clip)
        if request.client_media_port is None:
            return ControlResponse(status=400, method="SETUP",
                                   reason="client media port required")
        socket = self.host.udp.bind_ephemeral()
        session = ServerSession(
            session_id=self._next_session_id, clip=clip,
            schedule=self._schedules[clip.title], client=connection.peer,
            client_media_port=request.client_media_port, socket=socket)
        self._next_session_id += 1
        self.sessions[session.session_id] = session
        return ControlResponse(status=200, method="SETUP",
                               session_id=session.session_id,
                               server_media_port=socket.port)

    def _setup_tcp_session(self, connection: TcpConnection,
                           request: ControlRequest,
                           clip) -> ControlResponse:
        """SETUP with TCP media transport: listen for the client's
        media connection and bind it to the session when it arrives."""
        from repro.servers.tcp_media import TcpMediaSender

        media_port = self._next_media_port
        self._next_media_port += 1
        session = ServerSession(
            session_id=self._next_session_id, clip=clip,
            schedule=self._schedules[clip.title], client=connection.peer,
            client_media_port=0, socket=None, transport="TCP")
        self._next_session_id += 1
        self.sessions[session.session_id] = session

        def on_media_connection(media_connection: TcpConnection) -> None:
            session.attach_media_sender(TcpMediaSender(media_connection))

        self.host.tcp.listen(media_port, on_media_connection)
        return ControlResponse(status=200, method="SETUP",
                               session_id=session.session_id,
                               server_media_port=media_port)

    def _handle_play(self, connection: TcpConnection,
                     request: ControlRequest) -> ControlResponse:
        session = self.sessions.get(request.session_id or -1)
        if session is None:
            return ControlResponse(status=454, method="PLAY",
                                   reason="session not found")
        if session.state != SessionState.READY:
            return ControlResponse(status=455, method="PLAY",
                                   reason=f"session is {session.state.value}")
        if session.socket is None:
            return ControlResponse(status=455, method="PLAY",
                                   reason="media channel not connected")
        pacer = self._make_pacer(session)
        session.play(pacer)
        if self.scaling_policy_factory is not None:
            from repro.servers.scaling import ScalingController

            self.scaling_controllers[session.session_id] = (
                ScalingController(self.scaling_policy_factory(), pacer))
        if self.cc_factory is not None:
            from repro.cc.controller import CcSessionController

            self.cc_controllers[session.session_id] = CcSessionController(
                self.cc_factory(), pacer, self.host.sim,
                family=self.family.name.lower())
        if self.repair_factory is not None:
            repair = self.repair_factory()
            pacer.enable_repair(repair)
            self.repair_controllers[session.session_id] = repair
        return ControlResponse(status=200, method="PLAY",
                               session_id=session.session_id)

    def _handle_teardown(self, connection: TcpConnection,
                         request: ControlRequest) -> ControlResponse:
        session = self.sessions.get(request.session_id or -1)
        if session is None:
            return ControlResponse(status=454, method="TEARDOWN",
                                   reason="session not found")
        session.teardown()
        return ControlResponse(status=200, method="TEARDOWN",
                               session_id=session.session_id)

    def _handle_keepalive(self, connection: TcpConnection,
                          request: ControlRequest) -> ControlResponse:
        session = self.sessions.get(request.session_id or -1)
        if session is None or session.state == SessionState.TORN_DOWN:
            return ControlResponse(status=454, method="KEEPALIVE",
                                   reason="session not found")
        return ControlResponse(status=200, method="KEEPALIVE",
                               session_id=session.session_id)

    # ------------------------------------------------------------------
    # Fault injection (driven by repro.faults)
    # ------------------------------------------------------------------
    def pause_all(self) -> None:
        """Park every playing session's pacer (overload stand-in)."""
        for session in self.sessions.values():
            session.pause()
        telemetry = self.host.sim.telemetry
        if telemetry is not None:
            telemetry.emit(SERVER_PAUSED, server=self.host.name)

    def resume_all(self) -> None:
        """Continue every paused session."""
        for session in self.sessions.values():
            session.resume()
        telemetry = self.host.sim.telemetry
        if telemetry is not None:
            telemetry.emit(SERVER_RESUMED, server=self.host.name)

    def crash(self) -> None:
        """Die abruptly: sessions stop silently, requests go unanswered.

        No EOS markers, no TEARDOWN acks — the clients' keepalives and
        stall watchdogs are what detect it.  :meth:`restart` brings the
        control plane back (sessions stay dead, as after a real crash).
        """
        self.crashed = True
        for session in self.sessions.values():
            session.crash()
        telemetry = self.host.sim.telemetry
        if telemetry is not None:
            telemetry.emit(SERVER_CRASHED, server=self.host.name)

    def restart(self) -> None:
        """Bring a crashed server's control plane back up."""
        self.crashed = False

    # ------------------------------------------------------------------
    # Subclass hook
    # ------------------------------------------------------------------
    def _make_pacer(self, session: ServerSession) -> Pacer:
        """Build the family-specific pacer for a session."""
        raise NotImplementedError

    def _extra_handlers(self) -> Dict[str, object]:
        """Additional control methods a subclass serves (ABR's
        SEGMENT); unknown methods still answer 501."""
        return {}

    def _session_rng(self, session: ServerSession) -> random.Random:
        """A deterministic per-session random source."""
        seed = (self.host.sim.streams.master_seed * 1_000_003
                + session.session_id)
        return random.Random(seed)
