"""The client delay buffer.

Both products "use delay buffering to remove the effects of jitter"
(paper Section III.F): media enters the buffer as it arrives and leaves
as it plays.  :class:`DelayBuffer` models occupancy in *media seconds*:
playout begins once the preroll target is reached, and the buffer
drains in real time from then on.  Its occupancy series is what makes
the Real-vs-WMP startup asymmetry visible from the client side — with
the same preroll target, RealPlayer's 3× burst fills the buffer and
starts playout sooner.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import MediaError
from repro.telemetry.events import (
    PLAYOUT_START,
    REBUFFER_START,
    REBUFFER_STOP,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.core import Telemetry


class DelayBuffer:
    """Media-seconds jitter buffer with a preroll threshold.

    Args:
        preroll_seconds: media seconds that must be buffered before
            playout starts (both 2002 players defaulted to several
            seconds of preroll).
        telemetry: optional telemetry facade; when given, the buffer
            emits ``playout_start`` / ``rebuffer_start`` /
            ``rebuffer_stop`` events and samples a
            ``buffer.media_seconds`` gauge, all stamped with the
            caller-supplied simulated times.
        label: the ``player`` label on those events/metrics (the
            family name, e.g. ``"real"``).
    """

    def __init__(self, preroll_seconds: float = 5.0,
                 telemetry: Optional["Telemetry"] = None,
                 label: str = "",
                 resume_threshold_seconds: Optional[float] = None) -> None:
        if preroll_seconds < 0:
            raise MediaError("preroll must be nonnegative")
        if (resume_threshold_seconds is not None
                and resume_threshold_seconds < 0):
            raise MediaError("resume threshold must be nonnegative")
        self.preroll_seconds = preroll_seconds
        #: Rebuffer re-entry (fault robustness): after an underrun,
        #: playback stays paused — the buffer does not drain — until
        #: this many media seconds are buffered again.  ``None`` keeps
        #: the historical behavior: any arrival ends the rebuffer.
        self.resume_threshold_seconds = resume_threshold_seconds
        self.playout_started_at: Optional[float] = None
        self._buffered_media = 0.0  # media seconds currently held
        self._last_update: Optional[float] = None
        #: (time, media seconds buffered) after every change.
        self.occupancy_series: List[Tuple[float, float]] = []
        self.underruns = 0
        self._telemetry = telemetry
        self._label = label
        self._rebuffering = False
        #: Total seconds playback has spent paused refilling, summed
        #: over completed rebuffer episodes (QoE's rebuffer ratio).
        self.rebuffer_seconds = 0.0
        self._rebuffer_started_at: Optional[float] = None
        if telemetry is not None:
            self._occupancy_gauge = telemetry.gauge("buffer.media_seconds",
                                                    player=label)
            telemetry.registry.track("buffer.underruns", self, "underruns",
                                     player=label)

    def _drain_to(self, now: float) -> None:
        if self.playout_started_at is None or self._last_update is None:
            self._last_update = now
            return
        if self._rebuffering:
            # Playback is paused waiting to refill; nothing drains.
            # (Without a resume threshold the flag clears on the very
            # next arrival, before any draining could have happened —
            # the buffer is empty — so this changes nothing.)
            self._last_update = now
            return
        elapsed = now - self._last_update
        if elapsed > 0:
            before = self._buffered_media
            self._buffered_media = max(0.0, before - elapsed)
            if before > 0 and self._buffered_media == 0.0:
                self.underruns += 1
                self._rebuffering = True
                self._rebuffer_started_at = self._last_update + before
                if self._telemetry is not None:
                    # The buffer ran dry `before` media-seconds after
                    # the last update, not at observation time.
                    self._telemetry.bus.emit(
                        REBUFFER_START, self._last_update + before,
                        player=self._label)
        self._last_update = now

    def add_media(self, now: float, media_seconds: float) -> None:
        """Media arriving from the network.

        Raises:
            MediaError: for negative amounts.
        """
        if media_seconds < 0:
            raise MediaError("cannot buffer negative media")
        self._drain_to(now)
        self._buffered_media += media_seconds
        if (self.playout_started_at is None
                and self._buffered_media >= self.preroll_seconds):
            self.playout_started_at = now
            if self._telemetry is not None:
                self._telemetry.bus.emit(
                    PLAYOUT_START, now, player=self._label,
                    buffered_media=round(self._buffered_media, 9))
        if self._rebuffering and self._buffered_media > 0:
            threshold = self.resume_threshold_seconds
            if threshold is None or self._buffered_media >= threshold:
                self._rebuffering = False
                if self._rebuffer_started_at is not None:
                    self.rebuffer_seconds += max(
                        0.0, now - self._rebuffer_started_at)
                    self._rebuffer_started_at = None
                if self._telemetry is not None:
                    self._telemetry.bus.emit(REBUFFER_STOP, now,
                                             player=self._label)
        if self._telemetry is not None:
            self._occupancy_gauge.set(self._buffered_media, now)
        self.occupancy_series.append((now, self._buffered_media))

    def occupancy(self, now: float) -> float:
        """Media seconds buffered at ``now``."""
        self._drain_to(now)
        return self._buffered_media

    @property
    def playing(self) -> bool:
        return self.playout_started_at is not None

    @property
    def rebuffering(self) -> bool:
        """Whether playback is currently paused refilling the buffer."""
        return self._rebuffering

    def total_rebuffer_seconds(self, now: float) -> float:
        """Rebuffer time including any episode still in progress."""
        total = self.rebuffer_seconds
        if self._rebuffering and self._rebuffer_started_at is not None:
            total += max(0.0, now - self._rebuffer_started_at)
        return total

    def startup_delay(self, stream_start: float) -> Optional[float]:
        """Seconds from stream start to playout start, once playing."""
        if self.playout_started_at is None:
            return None
        return self.playout_started_at - stream_start
