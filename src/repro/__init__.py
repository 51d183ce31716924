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

from repro._version import __version__


def run_study(*args, **kwargs):
    """Convenience re-export of :func:`repro.experiments.runner.run_study`.

    Imported lazily so ``import repro`` stays instant.
    """
    from repro.experiments.runner import run_study as _run_study

    return _run_study(*args, **kwargs)


__all__ = ["__version__", "run_study"]
