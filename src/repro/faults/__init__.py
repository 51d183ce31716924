"""repro.faults — deterministic, seed-driven fault injection.

Three pieces, mirroring the subsystem's three jobs:

* :mod:`repro.faults.scenario` — *what happens*: declarative,
  picklable :class:`FaultScenario` schedules derived from the study
  seed, with named builders (``link-flap``, ``degrade``, ...).
* :mod:`repro.faults.controller` — *making it happen*: the
  :class:`FaultController` arms a scenario on a live simulation and
  executes the primitives against links, servers, and cross traffic.
* :mod:`repro.faults.report` — *what the stack did about it*: the
  :func:`recovery_report` distilled from the run's trace events.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".controller": ("FaultController",),
    ".report": ("RebufferEpisode", "RecoveryReport", "recovery_report"),
    ".scenario": ("FaultEvent", "FaultScenario", "SCENARIO_BUILDERS",
                  "build_scenario", "scenario_names"),
})
