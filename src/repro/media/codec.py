"""The synthetic codec: frame rates and frame sizes from encoding rate.

The paper's application-level findings (Figures 13–15) are about the
frame rates the two products' codecs produce at a given encoding rate:

* both reach full-motion 25+ fps at high rates (>= ~250 Kbps);
* at low rates (< ~56 Kbps) the MediaPlayer codec drops to ~13 fps
  while the RealPlayer codec holds a substantially higher rate
  (Figure 13's Real 22 Kbps clip beats WMP's 39 Kbps clip).

:func:`nominal_frame_rate` encodes that relationship as a logarithmic
fit through the paper's data points (calibration table in DESIGN.md).
:class:`SyntheticCodec` then expands a clip into a full
:class:`FrameSchedule`, spending the clip's byte budget across frames
(with periodic larger keyframes, more pronounced for RealVideo).
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro import units
from repro.errors import MediaError
from repro.media.clip import Clip, PlayerFamily
from repro.media.frames import FrameSchedule, VideoFrame

#: Full-motion ceiling the paper cites ("25 frames per second,
#: typically considered full-motion video frame rate"); both codecs
#: top out slightly above it at very high rates.
MAX_FRAME_RATE = 30.0
MIN_FRAME_RATE = 5.0

#: Log-fit coefficients fps = a + b * ln(rate_kbps), per family.
#: WMP passes through (50 Kbps, 13 fps) and (300 Kbps, 27 fps);
#: Real through (30 Kbps, 19 fps) and (284 Kbps, 27 fps).
_FPS_FIT = {
    PlayerFamily.WMP: (-17.6, 7.82),
    PlayerFamily.REAL: (6.9, 3.56),
}

#: Keyframe cadence and relative size: RealVideo's rate control varies
#: frame sizes more than Windows Media's (one source of its wider
#: packet-size distribution).
_GOP_LENGTH = {PlayerFamily.WMP: 12, PlayerFamily.REAL: 8}
_KEYFRAME_RATIO = {PlayerFamily.WMP: 2.0, PlayerFamily.REAL: 3.0}
_DELTA_JITTER = {PlayerFamily.WMP: 0.05, PlayerFamily.REAL: 0.25}


def nominal_frame_rate(family: PlayerFamily, encoded_kbps: float) -> float:
    """The codec's target frame rate for an encoding rate, in fps.

    Raises:
        MediaError: for a nonpositive rate.
    """
    if encoded_kbps <= 0:
        raise MediaError(f"encoding rate must be positive: {encoded_kbps}")
    intercept, slope = _FPS_FIT[family]
    fps = intercept + slope * math.log(encoded_kbps)
    return max(MIN_FRAME_RATE, min(MAX_FRAME_RATE, fps))


class SyntheticCodec:
    """Expand a clip into a deterministic frame schedule.

    Args:
        rng: optional random source for per-frame size jitter; omit for
            a fully deterministic schedule with the default seed.
    """

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._rng = rng or random.Random(0x5EED)

    def encode(self, clip: Clip) -> FrameSchedule:
        """Produce the clip's frame schedule.

        The byte budget (encoded rate × duration) is spread over frames
        so that each GOP honors the keyframe/delta size ratio and the
        whole schedule sums to the budget within rounding.

        Raises:
            MediaError: when the frame count or the byte budget overflows
                to infinity.
        """
        fps = nominal_frame_rate(clip.family, clip.encoded_kbps)
        frames = clip.duration * fps
        budget = clip.total_media_bytes
        if not (math.isfinite(frames) and math.isfinite(budget)):
            raise MediaError(
                f"a {clip.duration:g} s clip at {clip.encoded_kbps:g} Kbps "
                f"is too long to encode")
        frame_count = max(1, int(round(frames)))
        gop = _GOP_LENGTH[clip.family]
        key_ratio = _KEYFRAME_RATIO[clip.family]
        jitter = _DELTA_JITTER[clip.family]

        # Mean delta-frame size so that one keyframe of key_ratio×mean
        # plus (gop-1) deltas per GOP meets the budget.
        frames_per_gop = gop
        gops = frame_count / frames_per_gop
        bytes_per_gop = budget / gops if gops else budget
        delta_size = bytes_per_gop / (key_ratio + (frames_per_gop - 1))

        frames = []
        for number in range(frame_count):
            keyframe = number % gop == 0
            base = delta_size * (key_ratio if keyframe else 1.0)
            wobble = 1.0 + self._rng.uniform(-jitter, jitter)
            size = max(16, int(round(base * wobble)))
            frames.append(VideoFrame(number=number,
                                     media_time=number / fps,
                                     size_bytes=size, keyframe=keyframe))
        return FrameSchedule(frames, nominal_fps=fps)
