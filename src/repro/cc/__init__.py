"""Pluggable congestion control for the streaming servers.

The 2002 transports are fixed-rate by construction: WMS paces CBR and
RealServer front-loads a buffering burst.  This package adds the
"modern" axis — a :class:`CongestionControl` interface driven by
receiver reports, with deterministic AIMD (Reno-style) and
delay-gradient (GCC-style) implementations plus a null controller that
reproduces the 2002 behavior byte-identically by never arming any of
the feedback machinery.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".abr": ("AbrConfig", "choose_rung"),
    ".aimd": ("AimdCongestionControl",),
    ".base": ("CC_MAX_RATE_BPS", "CC_MIN_RATE_BPS", "CcConfig",
              "CongestionControl", "cc_descriptions", "cc_names"),
    ".controller": ("CcSessionController",),
    ".gcc": ("DelayGradientCongestionControl",),
    ".null": ("NullCongestionControl",),
})
