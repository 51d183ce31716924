"""repro.validate — runtime invariant checking and differential oracles.

Three layers of self-validation for the testbed (see ARCHITECTURE.md
for the catalog and diagram):

* :class:`RunValidator` — opt-in conservation-law checking over live
  simulation objects, hooked via ``Simulator(validate=...)`` and swept
  at run end.
* :func:`run_differential` — the same seeded study executed
  sequentially, in parallel, and through the disk cache, with every
  observable surface digest-diffed.
* :mod:`repro.validate.golden` — canonical seeded runs pinned to
  checked-in digests under ``tests/golden/``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".checker": ("INVARIANT_NAMES", "RunValidator", "Violation"),
    "repro.errors": ("ValidationError",),
    ".differential": ("DifferentialReport", "run_differential",
                      "study_surface"),
    ".golden": ("GOLDEN_SCENARIOS", "GoldenScenario", "check_golden",
                "compute_golden"),
})
