"""The adaptive-bitrate server: segment-pulled streaming on a ladder.

The "modern" transport of the then-vs-now scorecard.  Where the 2002
servers push a whole clip at encoding rate, the ABR server cuts the
same clip into fixed-duration segments and streams one segment per
client SEGMENT request, at the ladder rung the client picked, faster
than real time (``download_factor ×`` the rung rate) — the
burst-idle-burst on/off pattern of DASH-era transports.  Packets stay
sub-MTU, so the fragmentation signature of the 2002 WMS path vanishes
by construction.

The pacer reuses the full-rate-equivalent budget ledger of
:class:`~repro.servers.pacing.Pacer` (a rung is just a rate scale), so
media time stays monotone across rung switches and every existing
player/analysis surface works unchanged.  Per-segment bookkeeping
lands in ``segment_log`` for the ``ladder-conservation`` invariant.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cc.abr import AbrConfig
from repro.errors import MediaError
from repro.media.clip import Clip, PlayerFamily
from repro.media.frames import FrameSchedule
from repro.netsim.addressing import IPAddress
from repro.netsim.engine import Simulator
from repro.netsim.headers import PayloadMeta
from repro.netsim.udp import UdpSocket
from repro.servers.base import StreamingServer
from repro.servers.control import ControlRequest, ControlResponse, RTSP_PORT
from repro.servers.pacing import Pacer
from repro.servers.session import ServerSession, SessionState
from repro.telemetry.events import ABR_SEGMENT, STREAM_START

__all__ = ["AbrLadderPacer", "AbrServer", "SegmentRecord"]

#: ABR media packets never fragment: well under any MTU on the path.
ABR_CHUNK_BYTES = 1200

#: Wire size of the segment-boundary marker datagram (matches the
#: end-of-stream marker).
ABR_MARKER_BYTES = 16

#: Tolerance for budget-boundary comparisons (floats accumulate).
_BUDGET_EPS = 1e-6


@dataclass
class SegmentRecord:
    """One streamed segment, for telemetry and the ladder invariant."""

    index: int
    rung_index: int
    scale: float
    requested_at: float
    start_bytes: int
    start_budget: float
    end_bytes: Optional[int] = None
    end_budget: Optional[float] = None
    completed_at: Optional[float] = None

    @property
    def wire_bytes(self) -> Optional[int]:
        if self.end_bytes is None:
            return None
        return self.end_bytes - self.start_bytes


class AbrLadderPacer(Pacer):
    """Segment-pulled pacing: idle until a SEGMENT request, then burst
    one segment's media at ``download_factor ×`` the rung rate."""

    def __init__(self, sim: Simulator, socket: UdpSocket, dst: IPAddress,
                 dst_port: int, clip: Clip, schedule: FrameSchedule,
                 config: AbrConfig,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(sim, socket, dst, dst_port, clip, schedule)
        self.config = config
        self.segment_count = max(1, math.ceil(schedule.duration
                                              / config.segment_seconds))
        #: Budget (full-rate-equivalent bytes) per segment-grid step.
        self._budget_step = self.total_media_bytes / self.segment_count
        self.segment_log: list = []

    # ------------------------------------------------------------------
    # Lifecycle: PLAY arms the pacer but sends nothing until a request.
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.started_at is not None:
            raise MediaError("pacer already started")
        self.started_at = self.sim.now

    def request_segment(self, index: int, rung_index: int) -> bool:
        """Begin streaming segment ``index`` at ladder rung
        ``rung_index``; False for an out-of-protocol request."""
        if self._stopped or self.finished_at is not None:
            return False
        if index != len(self.segment_log) or index >= self.segment_count:
            return False
        if not 0 <= rung_index < len(self.config.rungs):
            return False
        if self.segment_log and self.segment_log[-1].end_bytes is None:
            return False  # previous segment still streaming
        self.set_rate_scale(self.config.rungs[rung_index],
                            reason="abr_ladder")
        record = SegmentRecord(
            index=index, rung_index=rung_index, scale=self.rate_scale,
            requested_at=self.sim.now, start_bytes=self.bytes_sent,
            start_budget=self._budget_consumed)
        self.segment_log.append(record)
        if self._telemetry is not None:
            self._telemetry.emit(ABR_SEGMENT,
                                 family=self.clip.family.name.lower(),
                                 segment=index, rung=rung_index,
                                 scale=round(self.rate_scale, 6))
        self.sim.schedule_in(0.0, self._tick)
        return True

    # ------------------------------------------------------------------
    # Send loop pieces
    # ------------------------------------------------------------------
    def _segment_end_budget(self, index: int) -> float:
        if index >= self.segment_count - 1:
            return float(self.total_media_bytes)
        return self._budget_step * (index + 1)

    def _next_send(self) -> Optional[Tuple[int, float]]:
        if self.media_bytes_remaining <= 0 or not self.segment_log:
            return None
        segment = self.segment_log[-1]
        budget_left = (self._segment_end_budget(segment.index)
                       - self._budget_consumed)
        if budget_left <= _BUDGET_EPS:
            return None
        wire_left = budget_left * self.rate_scale
        size = max(1, min(ABR_CHUNK_BYTES, math.ceil(wire_left)))
        rate = (self.clip.encoded_bps * self.rate_scale
                * self.config.download_factor)
        return size, size * 8.0 / rate

    def _schedule_next(self, delay: float) -> None:
        segment = self.segment_log[-1]
        if (self._budget_consumed
                >= self._segment_end_budget(segment.index) - _BUDGET_EPS):
            self._close_segment(segment)
            return  # park until the next SEGMENT request
        super()._schedule_next(delay)

    def _close_segment(self, segment: SegmentRecord) -> None:
        if segment.end_bytes is not None:
            return
        segment.end_bytes = self.bytes_sent
        segment.end_budget = self._budget_consumed
        segment.completed_at = self.sim.now
        # Explicit boundary marker: the client keys segment completion
        # on this (not on media-time arithmetic, which would couple it
        # to the server's frame schedule).  The final segment needs no
        # marker — the end-of-stream datagram ends play instead.
        if segment.index < self.segment_count - 1:
            self.socket.send(self.dst, self.dst_port, ABR_MARKER_BYTES,
                             payload=PayloadMeta(kind="abr-segment-end",
                                                 adu_sequence=segment.index))

    def _finish(self) -> None:
        if self.segment_log:
            self._close_segment(self.segment_log[-1])
        super()._finish()


class AbrServer(StreamingServer):
    """A segment-ladder streaming server for either clip family.

    ``family`` is per-instance (unlike the 2002 servers): the ABR
    transport serves both sides of a pair run, keeping the REAL/WMP
    labels every analysis and invariant keys on.
    """

    def __init__(self, host, family: PlayerFamily,
                 config: Optional[AbrConfig] = None,
                 control_port: int = RTSP_PORT) -> None:
        self.family = family
        self.config = config or AbrConfig()
        super().__init__(host, control_port=control_port)

    def _make_pacer(self, session: ServerSession) -> Pacer:
        pacer = AbrLadderPacer(
            sim=self.host.sim, socket=session.socket, dst=session.client,
            dst_port=session.client_media_port, clip=session.clip,
            schedule=session.schedule, config=self.config,
            rng=self._session_rng(session))
        telemetry = self.host.sim.telemetry
        if telemetry is not None:
            telemetry.emit(STREAM_START,
                           family=self.family.name.lower(),
                           clip=session.clip.title,
                           session_id=session.session_id,
                           mode="abr", segments=pacer.segment_count,
                           rungs=len(self.config.rungs))
        return pacer

    def _extra_handlers(self) -> Dict[str, object]:
        return {"SEGMENT": self._handle_segment}

    def _handle_segment(self, connection,
                        request: ControlRequest) -> ControlResponse:
        session = self.sessions.get(request.session_id or -1)
        if session is None or session.state == SessionState.TORN_DOWN:
            return ControlResponse(status=454, method="SEGMENT",
                                   reason="session not found")
        pacer = session.pacer
        if not isinstance(pacer, AbrLadderPacer):
            return ControlResponse(status=455, method="SEGMENT",
                                   reason="session is not streaming ABR")
        if (request.segment_index is None or request.rung is None
                or not pacer.request_segment(request.segment_index,
                                             request.rung)):
            return ControlResponse(
                status=416, method="SEGMENT",
                reason=f"bad segment request "
                       f"({request.segment_index}@{request.rung})")
        return ControlResponse(status=200, method="SEGMENT",
                               session_id=session.session_id)
