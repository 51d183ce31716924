"""Methodology tools: ping, tracert, and playlist automation.

The paper's methodology ran ``ping`` and ``tracert`` before and after
every experiment to verify network conditions (Section II.D) and used
the trackers' playlist support to play clips back to back.  These are
their simulated equivalents.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".packet_pair": ("BandwidthEstimate", "estimate_bottleneck",
                     "estimate_from_trace"),
    ".ping": ("PingReport", "PingSession", "run_ping"),
    ".playlist": ("PlaylistEntry", "PlaylistRunner"),
    ".stability": ("StabilityVerdict", "verify_stability"),
    ".tracert": ("TracerouteHop", "TracerouteReport", "run_tracert"),
})
