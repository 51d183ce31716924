"""The adaptive-bitrate tracker: a DASH-style pull player.

Records exactly the :class:`~repro.players.stats.PlayerStats` schema
the 2002 trackers record — fragmentation, interarrival, buffering and
frame accounting all run unchanged — while driving the modern
segment-request loop: measure the throughput of each downloaded
segment, consult the ladder policy (:func:`repro.cc.abr.choose_rung`,
throughput-picked with buffer-gated hysteresis), and request the next
segment at the chosen rung.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.cc.abr import AbrConfig, choose_rung
from repro.media.clip import PlayerFamily
from repro.netsim.addressing import IPAddress
from repro.netsim.udp import UdpDatagram
from repro.players.base import StreamingClient
from repro.servers.control import ControlRequest, RTSP_PORT
from repro.telemetry.events import ABR_SWITCH

__all__ = ["AbrTracker"]


class AbrTracker(StreamingClient):
    """Plays one clip over the ABR transport for either family."""

    uses_interleaving = False

    def __init__(self, host, server: IPAddress, family: PlayerFamily,
                 config: Optional[AbrConfig] = None,
                 control_port: int = RTSP_PORT,
                 preroll_seconds: float = 5.0,
                 feedback_interval: Optional[float] = 1.0,
                 robustness: bool = False) -> None:
        self.family = family
        super().__init__(host, server, control_port=control_port,
                         preroll_seconds=preroll_seconds,
                         feedback_interval=feedback_interval,
                         transport="UDP", robustness=robustness)
        self.config = config or AbrConfig()
        #: Index of the segment currently downloading (or about to be).
        self._segment_index = 0
        self._segment_count: Optional[int] = None
        self._segment_started_at: Optional[float] = None
        self._segment_bytes = 0
        self.current_rung = 0
        self._rung_since: Optional[float] = None
        #: (sim time, rung index) at every switch, first entry at PLAY.
        self.rung_history: List[Tuple[float, int]] = []
        self.switch_count = 0

    # ------------------------------------------------------------------
    # Segment loop
    # ------------------------------------------------------------------
    def _on_playing(self) -> None:
        duration = self.stats.description.duration
        self._segment_count = max(
            1, math.ceil(duration / self.config.segment_seconds))
        self.current_rung = 0  # start safe, at the bottom of the ladder
        self._rung_since = self.host.sim.now
        self.rung_history.append((self.host.sim.now, self.current_rung))
        self._request_segment(0)

    def _request_segment(self, index: int) -> None:
        self._segment_index = index
        self._segment_started_at = self.host.sim.now
        self._segment_bytes = 0
        request = ControlRequest(method="SEGMENT",
                                 session_id=self.session_id,
                                 segment_index=index,
                                 rung=self.current_rung)
        self._safe_send(request, request.wire_bytes)

    def _on_media(self, datagram: UdpDatagram) -> None:
        payload = datagram.payload
        if payload.kind == "abr-segment-end":
            # Server-side boundary marker: segment downloaded in full.
            if (not self.done and self._segment_count is not None
                    and payload.adu_sequence == self._segment_index):
                self._segment_complete(datagram.arrival_time)
            return
        is_media = (not self.done and self.stats is not None
                    and payload.kind == "media")
        super()._on_media(datagram)
        if not is_media or self._segment_count is None:
            return
        self._segment_bytes += datagram.payload_bytes

    def _segment_complete(self, now: float) -> None:
        throughput = None
        if (self._segment_started_at is not None
                and now > self._segment_started_at):
            throughput = (self._segment_bytes * 8.0
                          / (now - self._segment_started_at))
        finished = self._segment_index
        if finished + 1 >= self._segment_count:
            return  # final segment: the server's EOS marker ends play
        self._select_rung(now, throughput)
        self._request_segment(finished + 1)

    def _select_rung(self, now: float,
                     throughput_bps: Optional[float]) -> None:
        native_bps = self.stats.description.encoded_kbps * 1000.0
        buffer_seconds = (self.buffer.occupancy(now)
                          if self.buffer is not None else 0.0)
        held = now - (self._rung_since
                      if self._rung_since is not None else now)
        rung = choose_rung(self.config, self.current_rung, throughput_bps,
                           native_bps, buffer_seconds, held)
        if rung == self.current_rung:
            return
        if self._telemetry is not None:
            self._telemetry.emit(
                ABR_SWITCH, player=self.family.name.lower(),
                from_rung=self.current_rung, to_rung=rung,
                throughput_kbps=(round(throughput_bps / 1000.0, 3)
                                 if throughput_bps is not None else -1.0),
                buffer_seconds=round(buffer_seconds, 6))
        self.current_rung = rung
        self._rung_since = now
        self.rung_history.append((now, rung))
        self.switch_count += 1
