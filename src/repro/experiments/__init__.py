"""The paper's experiments: datasets, runner, and figure generators.

:mod:`repro.experiments.datasets` holds Table 1 verbatim;
:mod:`repro.experiments.conditions` samples per-run network conditions
matching Figures 1–2; :mod:`repro.experiments.runner` executes the
paper's simultaneous-stream methodology; and
:mod:`repro.experiments.figures` regenerates every table and figure.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".conditions": ("NetworkConditions", "sample_conditions"),
    ".datasets": ("build_table1_library",),
    ".runner": ("PairRunResult", "StudyResults", "run_pair_experiment",
                "run_study"),
})
