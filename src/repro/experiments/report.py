"""Full study report: every artifact's findings in one document.

``python -m repro.experiments.report`` runs the full-length Table 1
sweep and prints every regenerated table/figure with its findings —
the source material for EXPERIMENTS.md.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO

from repro.errors import AnalysisError
from repro.experiments.cache import get_study
from repro.experiments.figures import ALL_FIGURES, FigureResult
from repro.experiments.runner import StudyResults
from repro.experiments.spec import RunSpec


def generate_figure(figure_id: str, study: StudyResults) -> FigureResult:
    """``ALL_FIGURES[figure_id](study)``.

    Raises:
        AnalysisError: naming the figure, when ``study`` is too short
            for one of its analyses.
    """
    try:
        return ALL_FIGURES[figure_id](study)
    except AnalysisError as exc:
        raise AnalysisError(f"{figure_id}: {exc}") from exc


def build_report(study: StudyResults, plots: bool = False) -> str:
    """Render every artifact's rows and findings as one document.

    Raises:
        AnalysisError: naming the first figure ``study`` is too short
            for.
    """
    return "\n\n".join(generate_figure(figure_id, study).render(plot=plots)
                       for figure_id in sorted(ALL_FIGURES))


def main(argv: Optional[list] = None, out: TextIO = sys.stdout) -> None:
    argv = list(sys.argv[1:] if argv is None else argv)
    plots = "--plots" in argv
    started = time.time()
    study = get_study(RunSpec(seed=2002, duration_scale=1.0))
    out.write(f"# study sweep: {len(study)} pair runs "
              f"({time.time() - started:.0f}s)\n\n")
    out.write(build_report(study, plots=plots))
    out.write("\n")


if __name__ == "__main__":
    main()
