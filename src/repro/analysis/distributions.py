"""Empirical distribution estimation: histograms, PDFs, CDFs.

The paper plots probability density functions (Figures 6–8) and
cumulative density functions (Figures 1, 2, 9) of empirical samples.
These helpers compute both as plain (x, y) point lists, deliberately
free of any plotting dependency — the benchmark harness renders them
as ASCII and records the series in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass
from itertools import repeat
from operator import floordiv, methodcaller, mul
from typing import List, Optional, Sequence, Tuple

from repro.errors import AnalysisError

_integer_ratio = methodcaller("as_integer_ratio")

#: Bits of the scaled radicand in :func:`_sqrt_of_fraction`: two more
#: than twice a float's precision, so the root keeps two guard bits.
_SQRT_BITS = 2 * sys.float_info.mant_dig + 3


@dataclass(frozen=True)
class SampleSummary:
    """Scalar summary of a sample."""

    count: int
    mean: float
    median: float
    std: float
    minimum: float
    maximum: float


def summarize(values: Sequence[float]) -> SampleSummary:
    """Basic descriptive statistics.

    Raises:
        AnalysisError: for an empty sample or a NaN or infinite value.
    """
    if not values:
        raise AnalysisError("cannot summarize an empty sample")
    return SampleSummary(
        count=len(values),
        mean=statistics.fmean(values),
        median=statistics.median(values),
        std=pstdev(values),
        minimum=min(values),
        maximum=max(values))


def pstdev(values: Sequence[float]) -> float:
    """The population standard deviation, correctly rounded.

    Exact in integers: ``as_integer_ratio`` writes each int or float
    as ``k / d`` with ``d`` a power of two, so scaling every numerator
    to the largest denominator ``D`` loses nothing, and the variance
    is ``(n·Σk² − (Σk)²) / (n²·D²)``.  Its square root is rounded once
    (:func:`_sqrt_of_fraction`), so from Python 3.11 on this equals
    the standard library's ``pstdev`` bit for bit, without its
    ``Fraction`` sums.

    Raises:
        AnalysisError: for an empty sample or a NaN or infinite value.
    """
    if not values:
        raise AnalysisError("cannot take the deviation of an empty sample")
    try:
        try:
            numerators, denominators = zip(*map(float.as_integer_ratio,
                                                values))
        except TypeError:  # an int among the floats
            numerators, denominators = zip(*map(_integer_ratio, values))
    except (ValueError, OverflowError) as exc:
        raise AnalysisError(
            f"sample holds a non-finite value ({exc})") from exc
    scale = max(denominators)
    if scale == min(denominators):  # one denominator, as for sizes
        scaled = numerators
    else:
        scaled = list(map(mul, numerators,
                          map(floordiv, repeat(scale), denominators)))
    count = len(scaled)
    total = sum(scaled)
    return _sqrt_of_fraction(count * sum(map(mul, scaled, scaled))
                             - total * total,
                             count * count * scale * scale)


def _sqrt_of_fraction(numerator: int, denominator: int) -> float:
    """The square root of ``numerator / denominator`` (a positive
    denominator), correctly rounded to a float.

    The fraction is scaled by an even power of two so its integer
    square root has two bits beyond a float's precision; the lowest
    bit is set when that root is inexact (round to odd), so the one
    rounding to a float cannot double-round.  This is the method of
    CPython 3.11's ``statistics._float_sqrt_of_frac``.
    """
    shift = (numerator.bit_length() - denominator.bit_length()
             - _SQRT_BITS) // 2
    if shift >= 0:
        denominator <<= 2 * shift
    else:
        numerator <<= -2 * shift
    root = math.isqrt(numerator // denominator)
    root |= root * root * denominator != numerator
    return float(root << shift) if shift >= 0 else root / (1 << -shift)


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0-100) by linear interpolation.

    Raises:
        AnalysisError: for empty samples or q outside [0, 100].
    """
    if not values:
        raise AnalysisError("cannot take a percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise AnalysisError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return ordered[low]
    weight = position - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


def histogram(values: Sequence[float], bin_width: Optional[float] = None,
              bins: Optional[int] = None,
              value_range: Optional[Tuple[float, float]] = None,
              ) -> List[Tuple[float, int]]:
    """Counts per bin; returns (bin center, count) pairs.

    Exactly one of ``bin_width`` / ``bins`` may be given; with neither,
    a Sturges bin count is used.

    Raises:
        AnalysisError: for empty input, contradictory bin settings, or
            a NaN or infinite value.
    """
    if not values:
        raise AnalysisError("cannot histogram an empty sample")
    if bin_width is not None and bins is not None:
        raise AnalysisError("give bin_width or bins, not both")
    low, high = value_range if value_range else (min(values), max(values))
    if high <= low:
        high = low + (bin_width or 1.0)
    try:
        if bin_width is None:
            if bins is None:
                bins = max(1, int(math.ceil(math.log2(len(values)) + 1)))
            bin_width = (high - low) / bins
        else:
            bins = max(1, int(math.ceil((high - low) / bin_width)))
        counts = [0] * bins
        # A NaN or an infinity reaches int() as a NaN or an infinity
        # in the bin count or in its own bin index.
        for value in values:
            index = int((value - low) / bin_width)
            if index < 0 or index >= bins:
                if index == bins and value == high:
                    index = bins - 1
                else:
                    continue  # outside the requested range
            counts[index] += 1
    except (ValueError, OverflowError) as exc:
        raise AnalysisError(
            f"cannot bin a non-finite value or span ({exc})") from exc
    return [(low + (index + 0.5) * bin_width, counts[index])
            for index in range(bins)]


def pdf(values: Sequence[float], bin_width: Optional[float] = None,
        bins: Optional[int] = None,
        value_range: Optional[Tuple[float, float]] = None,
        ) -> List[Tuple[float, float]]:
    """An empirical probability *mass per bin*: (bin center, fraction).

    This matches the paper's "Probability Density" axes, which plot the
    fraction of samples per bin (their Figure 6 peaks near 0.8 for an
    80% share), not a true density integrating to one.
    """
    histogram_points = histogram(values, bin_width=bin_width, bins=bins,
                                 value_range=value_range)
    total = sum(count for _, count in histogram_points)
    if total == 0:
        raise AnalysisError("all samples fell outside the requested range")
    return [(center, count / total) for center, count in histogram_points]


def cdf(values: Sequence[float]) -> List[Tuple[float, float]]:
    """The empirical CDF as (value, cumulative fraction) steps.

    Infinities sort to the ends like any value; a NaN has no place.

    Raises:
        AnalysisError: for an empty sample or one holding a NaN.
    """
    if not values:
        raise AnalysisError("cannot compute a CDF of an empty sample")
    if any(map(math.isnan, values)):
        raise AnalysisError("cannot compute a CDF of a sample holding NaN")
    ordered = sorted(values)
    count = len(ordered)
    points: List[Tuple[float, float]] = []
    for index, value in enumerate(ordered, start=1):
        if points and points[-1][0] == value:
            points[-1] = (value, index / count)
        else:
            points.append((value, index / count))
    return points


def cdf_at(points: List[Tuple[float, float]], x: float) -> float:
    """Evaluate an empirical CDF (from :func:`cdf`) at ``x``."""
    result = 0.0
    for value, cumulative in points:
        if value <= x:
            result = cumulative
        else:
            break
    return result
