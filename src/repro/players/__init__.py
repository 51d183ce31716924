"""Instrumented streaming clients.

The paper built two recording players — MediaTracker (a customized
Windows MediaPlayer) and RealTracker (a customized RealPlayer) — to
capture the application-level statistics the products display but do
not log.  This package reproduces them: a shared client driving the
control protocol and receiving media over UDP, a delay buffer, the
MediaPlayer interleaving batcher (Figure 12), and the statistics
records every figure's application-level data comes from.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("StreamingClient",),
    ".buffer": ("DelayBuffer",),
    ".interleave": ("BatchingReceiver",),
    ".logging": ("read_log", "write_log"),
    ".mediatracker": ("MediaTracker",),
    ".quality": ("QualityReport", "quality_report"),
    ".realtracker": ("RealTracker",),
    ".stats": ("PacketReceipt", "PlayerStats"),
})
