"""Polynomial trend fitting (Figure 3).

Figure 3 overlays "second order polynomial trend curves" on the
playback-rate-versus-encoding-rate scatter for each player.  This
module wraps :func:`numpy.polyfit` with the small amount of structure
the experiment needs: a fitted-trend object that can be evaluated and
compared against the ``y = x`` reference line.  numpy is imported on
first use: every ``repro.experiments`` import reaches this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import AnalysisError


@dataclass(frozen=True)
class PolynomialTrend:
    """A fitted polynomial y(x) = c0*x^d + ... + cd."""

    coefficients: Tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: float) -> float:
        import numpy as np
        return float(np.polyval(self.coefficients, x))

    def mean_offset_from_identity(self, xs: Sequence[float]) -> float:
        """Mean of y(x) - x over ``xs``.

        Figure 3's qualitative finding in one number: positive for
        RealPlayer (plays back above the encoding rate), ~zero for
        Windows Media Player.
        """
        import numpy as np
        if not xs:
            raise AnalysisError("no evaluation points")
        return float(np.mean([self(x) - x for x in xs]))


def fit_polynomial_trend(xs: Sequence[float], ys: Sequence[float],
                         degree: int = 2) -> PolynomialTrend:
    """Least-squares polynomial fit (degree 2 by default, as in Fig. 3).

    The degree is reduced automatically when there are too few distinct
    points to support it, rather than failing or overfitting.

    Raises:
        AnalysisError: for empty or mismatched inputs.
    """
    import numpy as np
    if len(xs) != len(ys):
        raise AnalysisError(f"mismatched lengths: {len(xs)} vs {len(ys)}")
    if not xs:
        raise AnalysisError("cannot fit a trend to no points")
    distinct = len(set(xs))
    effective_degree = max(0, min(degree, distinct - 1))
    coefficients = np.polyfit(np.asarray(xs, dtype=float),
                              np.asarray(ys, dtype=float),
                              effective_degree)
    return PolynomialTrend(coefficients=tuple(float(c)
                                              for c in coefficients))
