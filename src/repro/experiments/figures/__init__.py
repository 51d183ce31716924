"""Per-figure generators.

One module per paper artifact; each exposes ``generate(study)``
returning a :class:`~repro.experiments.figures.base.FigureResult` whose
``render()`` prints the same rows/series the paper reports.  The
benchmark harness calls these; EXPERIMENTS.md records their output
against the paper's values.  ``ALL_FIGURES`` maps each paper id to its
generator.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("FigureResult",),
    ".catalog": ("ALL_FIGURES",),
})
