"""Reproduction of Li, Claypool, Kinicki (WPI 2002):
"MediaPlayer™ versus RealPlayer™ — A Comparison of Network Turbulence".

The library simulates the paper's entire measurement pipeline — a
multi-hop IP network, Windows-Media-like and Real-like streaming
servers, instrumented clients, and an Ethereal-like capture tool — and
provides the paper's contribution as a reusable artifact: turbulence
profiles and Section IV's realistic streaming-flow generators.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "._version": ("__version__",),
    # :func:`repro.experiments.runner.run_study`, loaded on first use so
    # ``import repro`` stays instant.
    ".experiments.runner": ("run_study",),
})
