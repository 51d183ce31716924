"""Two-sample distribution comparison.

The Section IV validation needs a number for "the synthetic flow's
distributions look like the measured ones".  The Kolmogorov–Smirnov
statistic — the maximum distance between two empirical CDFs — is the
standard choice and needs no distributional assumptions.  A hand-rolled
implementation keeps the runtime dependency on numpy only.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import ne
from typing import Sequence

from repro.errors import AnalysisError


@dataclass(frozen=True)
class KsResult:
    """The KS statistic and its asymptotic significance level."""

    statistic: float
    p_value: float
    n1: int
    n2: int

    def similar(self, alpha: float = 0.01) -> bool:
        """True when the samples are *not* distinguishable at alpha.

        Note the direction: a large p-value means "no evidence the
        distributions differ", which is the desired outcome for a
        generator-validation check.
        """
        return self.p_value > alpha


def ks_statistic(first: Sequence[float],
                 second: Sequence[float]) -> float:
    """The two-sample KS statistic (max CDF distance), in [0, 1].

    Raises:
        AnalysisError: for empty samples, or a NaN in either one (a NaN
            has no place in a sorted sample, so no CDF step can pass it).
    """
    if not first or not second:
        raise AnalysisError("both samples must be nonempty")
    a = sorted(first)
    b = sorted(second)
    # NaN is the one value unequal to itself.
    if any(map(ne, a, a)) or any(map(ne, b, b)):
        raise AnalysisError("samples must not contain NaN")
    size_a, size_b = len(a), len(b)
    i = j = 0
    distance = 0.0
    while i < size_a and j < size_b:
        # Consume *all* occurrences of the next value from both sides
        # before comparing CDFs, or ties inflate the distance.  Most
        # values occur once, so a run of ties is looked up (it ends
        # where bisect_right would insert the value) only when the next
        # value repeats.
        x = a[i]
        y = b[j]
        if x <= y:
            i += 1
            if i < size_a and a[i] == x:
                i = bisect_right(a, x, i)
        if y <= x:
            j += 1
            if j < size_b and b[j] == y:
                j = bisect_right(b, y, j)
        gap = i / size_a - j / size_b
        if gap < 0.0:
            gap = -gap
        if gap > distance:
            distance = gap
    # The last step exhausted one sample, whose CDF then read exactly
    # 1.0, so its gap already covers the other sample's remainder.
    return distance


def ks_test(first: Sequence[float], second: Sequence[float]) -> KsResult:
    """Two-sample KS test with the asymptotic p-value.

    Uses the classic Smirnov asymptotic distribution
    ``Q(λ) = 2 Σ (-1)^(k-1) exp(-2 k² λ²)`` with the effective-size
    correction, which is accurate for the sample sizes the study
    produces (hundreds to thousands of packets).  Below λ ≈ 0.034 the
    series has not converged after 100 terms (at λ = 0 its terms are
    all ±2); Q(λ) is 1.0 to double precision there, and that is the
    p-value reported, as in Numerical Recipes' ``probks``.
    """
    statistic = ks_statistic(first, second)
    n1, n2 = len(first), len(second)
    effective = math.sqrt(n1 * n2 / (n1 + n2))
    lam = (effective + 0.12 + 0.11 / effective) * statistic
    total = 0.0
    for k in range(1, 101):
        term = 2.0 * (-1) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1e-10:
            break
    else:
        total = 1.0
    p_value = min(1.0, max(0.0, total))
    return KsResult(statistic=statistic, p_value=p_value, n1=n1, n2=n2)
