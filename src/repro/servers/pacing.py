"""Pacing engines: how media bytes become a UDP packet schedule.

The two pacers here are the paper's two turbulence signatures:

* :class:`CbrAduPacer` (Windows Media): emits one application data
  unit per fixed tick.  At rates above ~118 Kbps the ADU exceeds the
  MTU and the sender's IP layer fragments it — producing the packet
  groups of Figure 4 and the fragment shares of Figure 5.  Sizes and
  intervals are constant per clip (Figures 6–9's CBR signature), and
  the delivery rate equals the playout rate for the whole clip
  (Figure 10's flat WMP lines).

* :class:`BurstThenSteadyPacer` (RealServer): emits sub-MTU packets of
  varied size at varied intervals, at ``ratio ×`` the playout rate
  during the initial buffering phase and at the playout rate after —
  Figure 10's burst-then-flat Real lines and Figure 11's ratio curve.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, Optional, Tuple

from repro import units
from repro.errors import MediaError
from repro.media.clip import Clip
from repro.media.frames import FrameSchedule
from repro.netsim.addressing import IPAddress
from repro.netsim.engine import Simulator
from repro.netsim.headers import PayloadMeta
from repro.netsim.udp import UdpSocket
from repro.telemetry.events import RATE_SWITCH, STREAM_END

FinishedCallback = Callable[[], None]

#: Pacing-gap histogram bounds, seconds: fine around the 100 ms WMS
#: tick and RealServer's sub-second gamma draws.
_GAP_BOUNDS = (0.001, 0.005, 0.010, 0.025, 0.050, 0.075, 0.100, 0.125,
               0.150, 0.200, 0.300, 0.500, 1.0, 2.0)


class Pacer:
    """Base pacer: owns the send loop from a socket to a destination.

    Subclasses implement :meth:`_next_send`, returning the size of the
    next datagram, its payload metadata, and the delay until the one
    after it — or ``None`` when the clip is exhausted.
    """

    def __init__(self, sim: Simulator, socket: UdpSocket, dst: IPAddress,
                 dst_port: int, clip: Clip, schedule: FrameSchedule) -> None:
        self.sim = sim
        self.socket = socket
        self.dst = dst
        self.dst_port = dst_port
        self.clip = clip
        self.schedule = schedule
        self.on_finished: Optional[FinishedCallback] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.bytes_sent = 0
        self.datagrams_sent = 0
        self._stopped = False
        self._paused = False
        self._resume_pending = False
        #: Media scaling (paper §VI): 1.0 = full rate.  When scaled,
        #: the pacer sends fewer wire bytes per media second, so the
        #: budget ledger below counts *full-rate-equivalent* bytes.
        self.rate_scale = 1.0
        #: Whether media scaling was ever engaged; on a never-scaled
        #: stream the validator holds ``bytes_sent`` to the budget
        #: ledger exactly.
        self._rate_scaled = False
        self._budget_consumed = 0.0
        #: Congestion control (repro.cc): when set, the send loop
        #: stretches inter-send gaps so the wire rate never exceeds
        #: this target.  ``None`` (the default, and the null
        #: controller) leaves the native schedule untouched.
        self.cc_rate_bps: Optional[float] = None
        self._cc_stamp = False
        #: Loss repair (repro.repair): per-session sender state, armed
        #: by :meth:`enable_repair`.  ``None`` (the default) sends no
        #: repair traffic and keeps the stream byte-identical.
        self._repair = None
        #: Wire-side repair ledger, deliberately separate from
        #: ``bytes_sent`` / the budget ledger (those describe media);
        #: the ``fec-conservation`` invariant reconciles the two views.
        self.repair_datagrams_sent = 0
        self.repair_bytes_sent = 0
        # Frame bookkeeping: cumulative byte offsets of frame ends let
        # each datagram name the frames it completes.
        self._frame_ends: List[int] = []
        total = 0
        for frame in schedule:
            total += frame.size_bytes
            self._frame_ends.append(total)
        self._total_media_bytes = total
        self._frames_completed = 0
        self._telemetry = sim.telemetry
        self._spans = (self._telemetry.spans
                       if self._telemetry is not None else None)
        if self._telemetry is not None:
            family = clip.family.name.lower()
            registry = self._telemetry.registry
            registry.track("pacer.datagrams", self, "datagrams_sent",
                           family=family)
            registry.track("pacer.bytes", self, "bytes_sent", family=family)
            self._hist_gap = registry.histogram("pacer.send_gap_seconds",
                                                bounds=_GAP_BOUNDS,
                                                family=family)
            self._hist_size = registry.histogram("pacer.datagram_bytes",
                                                 family=family)
        if sim.validator is not None:
            sim.validator.register_pacer(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin streaming now."""
        if self.started_at is not None:
            raise MediaError("pacer already started")
        self.started_at = self.sim.now
        self.sim.schedule_in(0.0, self._tick)

    def stop(self) -> None:
        """Abort streaming (TEARDOWN while playing)."""
        self._stopped = True

    def pause(self) -> None:
        """Park the send loop (fault injection: server pause).

        The in-flight tick event still fires but sends nothing; it
        marks itself parked so :meth:`resume` can restart exactly one
        tick chain.
        """
        self._paused = True

    def resume(self) -> None:
        """Continue a paused stream from where it left off."""
        if not self._paused:
            return
        self._paused = False
        if self._resume_pending:
            self._resume_pending = False
            self.sim.schedule_in(0.0, self._tick)

    def set_rate_scale(self, scale: float,
                       reason: str = "media_scaling") -> None:
        """Apply media scaling: stream at ``scale ×`` the encoding rate.

        Media time still advances in real time — a scaled stream covers
        the same clip with fewer bytes, like switching to a lower
        SureStream sub-encoding.

        Raises:
            MediaError: unless ``0 < scale <= 1``.
        """
        if not 0.0 < scale <= 1.0:
            raise MediaError(f"rate scale must be in (0, 1], got {scale}")
        if self._telemetry is not None and scale != self.rate_scale:
            self._telemetry.emit(RATE_SWITCH, family=self.clip.family.name.lower(),
                                 reason=reason,
                                 from_scale=round(self.rate_scale, 6),
                                 to_scale=round(scale, 6))
        if scale != 1.0:
            self._rate_scaled = True
        self.rate_scale = scale

    def enable_cc_stamping(self) -> None:
        """Stamp ``PayloadMeta.sent_at`` on outgoing media.

        Armed once per session by :class:`~repro.cc.CcSessionController`
        so the receiver can derive delay/jitter samples; never enabled
        on cc-free runs, keeping their payloads byte-identical.
        """
        self._cc_stamp = True

    def enable_repair(self, repair) -> None:
        """Attach a :class:`~repro.repair.sender.SenderRepair`.

        Armed once per session by the server when a repair config is
        in force; never called on repair-free runs.
        """
        self._repair = repair
        repair.bind(self)

    def send_repair(self, size: int, meta: PayloadMeta) -> None:
        """Send one repair datagram (parity or retransmission).

        Repair traffic rides the same socket as media but bypasses the
        media ledger entirely: no ``bytes_sent``, no budget
        consumption, no ADU sequence, no provenance span.  Media
        accounting stays exactly what the conservation invariants
        already pin; repair has its own ledger.
        """
        self.socket.send(self.dst, self.dst_port, size, payload=meta)
        self.repair_datagrams_sent += 1
        self.repair_bytes_sent += size

    def set_cc_rate(self, rate_bps: float) -> None:
        """Apply a congestion-control pacing target.

        Unlike :meth:`set_rate_scale` this does not touch the budget
        ledger — the same media bytes flow, just no faster than
        ``rate_bps`` on the wire.

        Raises:
            MediaError: for a nonpositive rate.
        """
        if rate_bps <= 0:
            raise MediaError(f"cc rate must be positive, got {rate_bps}")
        self.cc_rate_bps = rate_bps

    @property
    def total_media_bytes(self) -> int:
        return self._total_media_bytes

    @property
    def media_bytes_remaining(self) -> int:
        """Full-rate-equivalent media bytes not yet covered."""
        return max(0, self._total_media_bytes
                   - int(round(self._budget_consumed)))

    # ------------------------------------------------------------------
    # Send loop
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if self._stopped:
            return
        if self._paused:
            self._resume_pending = True
            return
        step = self._next_send()
        if step is None:
            self._finish()
            return
        size, delay = step
        # Cap by the remaining media, expressed at the current scale.
        remaining_at_scale = math.ceil(self.media_bytes_remaining
                                       * self.rate_scale)
        size = min(size, remaining_at_scale)
        if size <= 0:
            self._finish()
            return
        if self.cc_rate_bps is not None:
            delay = max(delay, size * 8.0 / self.cc_rate_bps)
        budget_after = self._budget_consumed + size / self.rate_scale
        meta = self._meta_for(budget_after)
        if self._cc_stamp:
            meta.sent_at = self.sim.now
        if self._spans is not None:
            # Root of the ADU's causal trace: every fragment, hop, and
            # buffer span downstream hangs off this one.
            meta.span = self._spans.adu_sent(
                self.sim.now, self.clip.family.name.lower(),
                self.datagrams_sent, size)
        self.socket.send(self.dst, self.dst_port, size, payload=meta)
        self.bytes_sent += size
        self._budget_consumed = budget_after
        self.datagrams_sent += 1
        if self._telemetry is not None:
            self._hist_size.observe(size)
            self._hist_gap.observe(delay)
        if self._repair is not None:
            self._repair.on_media_sent(meta, size)
        if self.media_bytes_remaining <= 0:
            self._finish()
            return
        self._schedule_next(delay)

    def _schedule_next(self, delay: float) -> None:
        """Continue the tick chain; the ABR pacer parks it at segment
        boundaries instead."""
        self.sim.schedule_in(delay, self._tick)

    def _meta_for(self, sent_after: float) -> PayloadMeta:
        completed: List[int] = []
        while (self._frames_completed < len(self._frame_ends)
               and self._frame_ends[self._frames_completed] <= sent_after):
            completed.append(self._frames_completed)
            self._frames_completed += 1
        media_time = (sent_after / self._total_media_bytes
                      * self.schedule.duration
                      if self._total_media_bytes else 0.0)
        return PayloadMeta(kind="media", adu_sequence=self.datagrams_sent,
                           frame_numbers=tuple(completed),
                           media_time=media_time)

    def _finish(self) -> None:
        if self.finished_at is not None:
            return
        self.finished_at = self.sim.now
        if self._repair is not None:
            # Flush the trailing partial parity group ahead of the EOS
            # marker; in-order links then deliver it before the client
            # closes its session.
            self._repair.on_stream_end()
        if self._telemetry is not None:
            self._telemetry.emit(STREAM_END,
                                 family=self.clip.family.name.lower(),
                                 clip=self.clip.title,
                                 datagrams=self.datagrams_sent,
                                 bytes=self.bytes_sent)
        # End-of-stream marker so the client can close its session.
        self.socket.send(self.dst, self.dst_port, 16,
                         payload=PayloadMeta(kind="media-eos",
                                             adu_sequence=self.datagrams_sent))
        if self.on_finished is not None:
            self.on_finished()

    # ------------------------------------------------------------------
    # Subclass hook
    # ------------------------------------------------------------------
    def _next_send(self) -> Optional[Tuple[int, float]]:
        """Return (datagram size bytes, delay to next send) or None."""
        raise NotImplementedError

    @property
    def streaming_duration(self) -> Optional[float]:
        """Wall seconds from start to finish, once finished."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at


# ----------------------------------------------------------------------
# Windows Media: CBR ADUs on a fixed tick
# ----------------------------------------------------------------------

#: The tick observed in Figure 12: the OS receives a packet group
#: every 100 ms for Windows Media streams.
WMS_TICK_SECONDS = 0.100

#: Below this ADU size WMS holds the packet near a fixed size and
#: stretches the interval instead (Figure 6: ~900-byte packets for the
#: ~50 Kbps clip, arriving every ~145 ms in Figure 8).
WMS_MIN_ADU_BYTES = 820
WMS_MAX_SMALL_ADU_BYTES = 980


def wms_packetization(encoded_bps: float,
                      small_adu_bytes: int = 900) -> Tuple[int, float]:
    """The (ADU size, tick interval) Windows Media uses for a rate.

    Above the rate where a 100 ms tick fills more than ``small_adu``
    bytes, the ADU grows with the rate (and will fragment once past the
    MTU); below it, the ADU stays at ``small_adu_bytes`` and the tick
    stretches to hold the rate.

    Raises:
        MediaError: for a nonpositive rate.
    """
    if encoded_bps <= 0:
        raise MediaError(f"rate must be positive: {encoded_bps}")
    tick_payload = encoded_bps * WMS_TICK_SECONDS / 8.0
    if tick_payload >= small_adu_bytes:
        return int(round(tick_payload)), WMS_TICK_SECONDS
    interval = small_adu_bytes * 8.0 / encoded_bps
    return small_adu_bytes, interval


def draw_wms_packetization(encoded_bps: float,
                           rng: random.Random) -> Tuple[int, float]:
    """One clip's (ADU size, tick interval), its small-ADU size drawn
    from ``rng``.

    The small-ADU size is constant within a clip but differs between
    clips (the paper: "the size of the last fragment is different for
    each clip but is the same within each clip").
    """
    small_adu = rng.randint(WMS_MIN_ADU_BYTES, WMS_MAX_SMALL_ADU_BYTES)
    return wms_packetization(encoded_bps, small_adu)


class CbrAduPacer(Pacer):
    """Windows Media pacing: constant ADU, constant tick, no burst."""

    def __init__(self, sim: Simulator, socket: UdpSocket, dst: IPAddress,
                 dst_port: int, clip: Clip, schedule: FrameSchedule,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(sim, socket, dst, dst_port, clip, schedule)
        self.adu_bytes, self.tick_interval = draw_wms_packetization(
            clip.encoded_bps, rng or random.Random(0))

    def _next_send(self) -> Optional[Tuple[int, float]]:
        if self.media_bytes_remaining <= 0:
            return None
        # Media scaling thins the ADU while keeping the tick: the
        # stream stays CBR at ``scale ×`` the full rate.
        adu = max(1, int(round(self.adu_bytes * self.rate_scale)))
        return adu, self.tick_interval


# ----------------------------------------------------------------------
# RealServer: buffering burst, varied sizes and intervals
# ----------------------------------------------------------------------

#: RealServer never lets a media packet fragment; stay under the MTU
#: with margin (the paper saw Real packets up to ~1200 bytes).
REAL_MAX_PACKET_BYTES = 1200
REAL_MIN_PACKET_BYTES = 128


def real_mean_packet_bytes(encoded_kbps: float) -> int:
    """Mean RealServer packet size for an encoding rate.

    Calibrated to the paper's traces: ~450 B at 36 Kbps (Figure 6) and
    ~700 B at 217–284 Kbps (Figure 4's ~40 packets/second), capped well
    under the MTU.
    """
    mean = 420.0 + 1.05 * encoded_kbps
    return int(max(REAL_MIN_PACKET_BYTES + 64,
                   min(mean, REAL_MAX_PACKET_BYTES * 0.75)))


def real_packet_bytes(rng: random.Random, mean_packet_bytes: int) -> int:
    """Draw one RealServer packet size.

    A two-component mixture spreading ~0.6-1.8x the mean, with an
    asymmetric upper tail (Figure 7's normalized PDF), clamped to the
    sub-MTU packet range.
    """
    if rng.random() < 0.72:
        factor = rng.uniform(0.60, 1.30)
    else:
        factor = rng.uniform(1.30, 1.80)
    size = int(round(mean_packet_bytes * factor))
    return max(REAL_MIN_PACKET_BYTES, min(size, REAL_MAX_PACKET_BYTES))


#: Gamma shape for RealServer interarrival jitter; shape 4 gives a
#: coefficient of variation of 0.5 — visibly spread, never wildly
#: heavy-tailed.
REAL_INTERARRIVAL_SHAPE = 4.0


class BurstThenSteadyPacer(Pacer):
    """RealServer pacing: burst at ``ratio × rate`` for the buffering
    phase, then the playout rate; sizes spread ~0.6–1.8× the mean.

    Args:
        burst_ratio: buffering-rate / playout-rate (Figure 11's y-axis).
        burst_duration: nominal buffering-phase length in seconds; the
            burst also ends early if the clip runs out of bytes.
        rng: random source for size/interval draws (seeded per session).
    """

    def __init__(self, sim: Simulator, socket: UdpSocket, dst: IPAddress,
                 dst_port: int, clip: Clip, schedule: FrameSchedule,
                 burst_ratio: float, burst_duration: float,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(sim, socket, dst, dst_port, clip, schedule)
        if burst_ratio < 1.0:
            raise MediaError(f"burst ratio must be >= 1, got {burst_ratio}")
        if burst_duration < 0:
            raise MediaError("burst duration must be nonnegative")
        self.burst_ratio = burst_ratio
        self.burst_duration = burst_duration
        self._rng = rng or random.Random(0)
        self.mean_packet_bytes = real_mean_packet_bytes(clip.encoded_kbps)
        self._burst_over = False

    def current_rate_bps(self) -> float:
        """The send rate in force right now (burst or steady), after
        any media scaling."""
        base = self.clip.encoded_bps * self.rate_scale
        if self.started_at is None:
            return base
        elapsed = self.sim.now - self.started_at
        if elapsed < self.burst_duration:
            return base * self.burst_ratio
        return base

    def _next_send(self) -> Optional[Tuple[int, float]]:
        if self.media_bytes_remaining <= 0:
            return None
        if (not self._burst_over and self.started_at is not None
                and self.sim.now - self.started_at >= self.burst_duration):
            self._burst_over = True
            if self._telemetry is not None:
                self._telemetry.emit(RATE_SWITCH, family="real",
                                     reason="burst_end",
                                     from_ratio=round(self.burst_ratio, 6),
                                     to_ratio=1.0)
        size = real_packet_bytes(self._rng, self.mean_packet_bytes)
        rate = self.current_rate_bps()
        mean_gap = size * 8.0 / rate
        shape = REAL_INTERARRIVAL_SHAPE
        gap = self._rng.gammavariate(shape, mean_gap / shape)
        return size, gap
