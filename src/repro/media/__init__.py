"""Media models: clips, synthetic codecs, and frame schedules.

The paper's Table 1 lists six sets of clips, each available in both
RealPlayer and MediaPlayer encodings at matched advertised rates.  This
package models those clips: their encodings (advertised vs. actual
rate, per the paper's Section III.B observation that Real encodes below
the advertised rate and WMP at it), the frame schedules a synthetic
codec derives from the encoding rate (Figures 13–15), and the library
containers the experiment datasets are built from.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".clip": ("Clip", "ClipEncoding", "PlayerFamily"),
    ".codec": ("SyntheticCodec", "nominal_frame_rate"),
    ".frames": ("FrameSchedule", "VideoFrame"),
    ".library": ("ClipLibrary", "ClipPair", "ClipSet", "RateBand"),
})
