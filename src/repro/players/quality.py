"""Reception quality: the trackers' user-facing quality summary.

MediaTracker "records ... reception quality" (paper §II.B).  This
module distills a :class:`~repro.players.stats.PlayerStats` into the
viewer-perceived numbers: startup delay, achieved versus nominal frame
rate, frames lost or late, and rebuffering events — plus a single 0–100
quality score in the spirit of the products' own "reception quality"
percentage (MediaPlayer displayed exactly such a number).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import AnalysisError
from repro.players.stats import PlayerStats
from repro.telemetry.events import QUALITY_DOWNSHIFT, QUALITY_UPSHIFT


@dataclass(frozen=True)
class QualityReport:
    """What the viewer experienced."""

    clip_title: str
    startup_delay: Optional[float]
    nominal_fps: float
    achieved_fps: float
    frames_played: int
    frames_late: int
    frames_missing: int
    rebuffer_events: int
    packets_lost: int

    @property
    def frame_completeness(self) -> float:
        """Fraction of the clip's frames that played on time (0-1)."""
        total = self.frames_played + self.frames_late + self.frames_missing
        if total <= 0:
            return 0.0
        return self.frames_played / total

    @property
    def fps_ratio(self) -> float:
        """Achieved / nominal frame rate (capped at 1)."""
        if self.nominal_fps <= 0:
            return 0.0
        return min(1.0, self.achieved_fps / self.nominal_fps)

    @property
    def score(self) -> float:
        """A 0-100 reception-quality score.

        Weighted like the products' own indicators: frame completeness
        dominates, sustained frame rate matters, and every rebuffer
        event costs a visible penalty.
        """
        base = 70.0 * self.frame_completeness + 30.0 * self.fps_ratio
        penalty = 10.0 * self.rebuffer_events
        return max(0.0, min(100.0, base - penalty))

    def render(self) -> str:
        startup = ("n/a" if self.startup_delay is None
                   else f"{self.startup_delay:.1f}s")
        return (f"{self.clip_title}: quality {self.score:.0f}/100 "
                f"(startup {startup}, "
                f"{self.achieved_fps:.1f}/{self.nominal_fps:.1f} fps, "
                f"{self.frames_late} late / {self.frames_missing} "
                f"missing frames, {self.rebuffer_events} rebuffers)")


#: The client's quality ladder: rate scales, best first (mirrors the
#: server's :class:`~repro.servers.scaling.MediaScalingPolicy` ladder).
QUALITY_LEVELS: Tuple[float, ...] = (1.0, 0.8, 0.6, 0.45, 0.3)
#: Interval loss fraction at or above which the controller steps down.
DOWN_LOSS = 0.05
#: Loss must stay at or below this for :data:`UP_HOLD` seconds before
#: the controller steps back up (the hysteresis gap: ``UP_LOSS <
#: DOWN_LOSS`` keeps the two edges apart).
UP_LOSS = 0.01
#: Seconds of sustained clean reception required for an upshift.
UP_HOLD = 8.0
#: Minimum seconds between two downshifts, so one burst cannot ride the
#: ladder all the way to the floor.
COOLDOWN = 4.0


class QualityController:
    """Client-side quality ladder with downshift/upshift hysteresis.

    The products of the paper degrade gracefully under turbulence —
    SureStream drops to a thinner sub-encoding, WMS thins streams —
    and recover conservatively.  This controller models the *player's*
    view of that ladder (:data:`QUALITY_LEVELS`): fed one observation
    per feedback interval, it steps down quickly (sustained loss or a
    rebuffer) and back up only after the path has stayed clean for a
    hold period, so a flapping link cannot make quality oscillate every
    interval.

    Args:
        telemetry: optional facade; shifts emit ``quality_downshift`` /
            ``quality_upshift`` trace events.
        label: ``player`` label on those events.
    """

    def __init__(self, telemetry=None, label: str = "") -> None:
        self.level_index = 0
        self.downshifts = 0
        self.upshifts = 0
        self._clean_since: Optional[float] = None
        self._last_downshift: Optional[float] = None
        self._telemetry = telemetry
        self._label = label

    def observe(self, now: float, loss_fraction: float,
                rebuffering: bool = False) -> None:
        """Feed one feedback interval's reception quality."""
        degraded = rebuffering or loss_fraction >= DOWN_LOSS
        if degraded:
            self._clean_since = None
            if (self.level_index + 1 < len(QUALITY_LEVELS)
                    and (self._last_downshift is None
                         or now - self._last_downshift >= COOLDOWN)):
                self._shift(now, self.level_index + 1, QUALITY_DOWNSHIFT,
                            loss_fraction, rebuffering)
                self._last_downshift = now
                self.downshifts += 1
            return
        if loss_fraction > UP_LOSS:
            # Between the edges: neither clean enough to climb nor bad
            # enough to fall — the hysteresis dead band.
            self._clean_since = None
            return
        if self.level_index == 0:
            return
        if self._clean_since is None:
            self._clean_since = now
            return
        if now - self._clean_since >= UP_HOLD:
            self._shift(now, self.level_index - 1, QUALITY_UPSHIFT,
                        loss_fraction, rebuffering)
            self.upshifts += 1
            self._clean_since = now

    def _shift(self, now: float, new_index: int, event_type: str,
               loss_fraction: float, rebuffering: bool) -> None:
        old = QUALITY_LEVELS[self.level_index]
        self.level_index = new_index
        if self._telemetry is not None:
            self._telemetry.bus.emit(
                event_type, now, player=self._label,
                from_level=round(old, 6),
                to_level=round(QUALITY_LEVELS[new_index], 6),
                loss_fraction=round(loss_fraction, 6),
                rebuffering=rebuffering)


def quality_report(stats: PlayerStats,
                   rebuffer_events: int = 0) -> QualityReport:
    """Build a quality report from a finished playback's statistics.

    Args:
        rebuffer_events: underrun count from the player's delay buffer
            (``player.buffer.underruns``); passed in because the stats
            object deliberately does not hold the buffer.

    Raises:
        AnalysisError: if the playback recorded nothing.
    """
    if not stats.receipts:
        raise AnalysisError("no packets received; nothing to score")
    startup = None
    if (stats.playout_started_at is not None
            and stats.first_media_at is not None):
        startup = stats.playout_started_at - stats.first_media_at
    return QualityReport(
        clip_title=stats.description.title,
        startup_delay=startup,
        nominal_fps=stats.description.nominal_fps,
        achieved_fps=stats.average_fps,
        frames_played=len(stats.frame_plays),
        frames_late=stats.frames_late,
        frames_missing=stats.frames_missing,
        rebuffer_events=rebuffer_events,
        packets_lost=stats.packets_lost)
