"""Streaming server models.

Two server behaviors, parameterized from the paper's measurements:

* :class:`WindowsMediaServer` — CBR: one application data unit per
  ~100 ms tick, constant size per clip; large ADUs fragment at the IP
  layer (Figures 4–9); buffering at the playout rate (Figure 10).
* :class:`RealServer` — variable packet sizes below the MTU, variable
  interarrivals, and an initial buffering burst at up to 3× the playout
  rate that decays with encoding rate (Figures 10–11).

Both speak the same RTSP-like control protocol over TCP
(:mod:`repro.servers.control`) and pace media over UDP.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("StreamingServer",),
    ".control": ("ClipDescription", "ControlRequest", "ControlResponse",
                 "RTSP_PORT"),
    ".pacing": ("BurstThenSteadyPacer", "CbrAduPacer", "Pacer",
                "wms_packetization"),
    ".realserver": ("RealServer", "buffering_ratio"),
    ".session": ("ServerSession", "SessionState"),
    ".wms": ("WindowsMediaServer",),
})
