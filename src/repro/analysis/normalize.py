"""Normalization helpers (Figures 7 and 9).

The paper summarizes packet sizes and interarrival times across clips
of very different rates by dividing each clip's samples by that clip's
own mean, so a CBR flow collapses to a spike at 1.0 and RealPlayer's
spread shows as mass from ~0.6 to ~1.8.
"""

from __future__ import annotations

import statistics
from typing import List, Sequence

from repro.analysis.distributions import SampleSummary, pstdev
from repro.errors import AnalysisError


def normalize_by_mean(values: Sequence[float]) -> List[float]:
    """Each value divided by the sample mean.

    Raises:
        AnalysisError: for empty input or a zero mean.
    """
    if not values:
        raise AnalysisError("cannot normalize an empty sample")
    mean = statistics.fmean(values)
    if mean == 0:
        raise AnalysisError("cannot normalize by a zero mean")
    return [value / mean for value in values]


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Std/mean — the scalar CBR-ness test the figures visualize.

    A CBR flow (MediaPlayer) has a near-zero CV for both sizes and
    gaps; RealPlayer's CV is substantially larger.

    Raises:
        AnalysisError: for empty input, a NaN or infinite value, or a
            zero mean.
    """
    if not values:
        raise AnalysisError("cannot compute CV of an empty sample")
    std = pstdev(values)
    mean = statistics.fmean(values)
    if mean == 0:
        raise AnalysisError("cannot compute CV with a zero mean")
    if len(values) == 1:
        return 0.0
    return std / mean


def summary_cv(summary: SampleSummary) -> float:
    """:func:`coefficient_of_variation` of the sample ``summary``
    describes, bit for bit, from its mean and std.

    Raises:
        AnalysisError: for a zero mean.
    """
    if summary.mean == 0:
        raise AnalysisError("cannot compute CV with a zero mean")
    if summary.count == 1:
        return 0.0
    return summary.std / summary.mean
