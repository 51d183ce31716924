"""The paper's contribution, packaged for reuse.

Two artifacts survive from the study:

1. **Turbulence profiles** — the empirical characterization of a
   streaming flow at the network layer: packet-size and interarrival
   distributions, their CBR-ness, fragmentation behavior, and the
   buffering burst.  :func:`fit_profile` extracts one from any capture.

2. **Section IV's flow generators** — "simulations based on data from
   this paper can be an effective means of exploring network impact":
   pick an RTT from Figure 1, an encoding from Table 1, sizes from
   Figures 6–7, intervals from Figures 8–9, fragmentation from
   Figure 5, and the Real burst from Figure 11.
   :class:`MediaPlayerFlowModel` and :class:`RealPlayerFlowModel` are
   that recipe, generating datagram schedules with no simulator
   required (and replayable into one).  :func:`fit_schedule` fits a
   generated flow from its schedule, to the profile its trace gives;
   :meth:`SyntheticFlow.to_trace` expands each datagram into packets by
   the IP layer's own rule (:func:`repro.units.fragment_payloads`) for
   export, with no second packet type.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".fitting": ("fit_profile", "fit_schedule"),
    ".generator": ("FlowReplayer", "SyntheticFlow", "generate_flow"),
    ".models": ("MediaPlayerFlowModel", "RealPlayerFlowModel",
                "flow_model_for", "sample_hop_count", "sample_rtt"),
    ".turbulence": ("TurbulenceProfile",),
})
