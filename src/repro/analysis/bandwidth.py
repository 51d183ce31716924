"""Bandwidth-over-time series (Figure 10).

Two sources: the network trace (wire bytes per interval, what Ethereal
shows; here) and the tracker statistics (application bytes per
interval, what the paper actually plots in Figure 10;
``PlayerStats.bandwidth_timeline``).  Both return (time, Kbps) pairs,
time relative to the first observation.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.capture.trace import Trace
from repro.errors import AnalysisError


def bandwidth_series(trace: Trace, interval: float = 1.0,
                     wire: bool = True) -> List[Tuple[float, float]]:
    """Delivered rate per interval from a capture trace.

    Args:
        interval: bucket size in seconds.
        wire: count Ethernet wire bytes (True) or IP bytes.

    Raises:
        AnalysisError: for an empty trace or nonpositive interval.
    """
    return rate_series(trace.times(), trace.sizes(wire), interval)


def rate_series(times: Sequence[float], nbytes: Sequence[int],
                interval: float = 1.0) -> List[Tuple[float, float]]:
    """Rate per interval of ``nbytes[i]`` bytes seen at ``times[i]``.

    The one bucket loop behind :func:`bandwidth_series`: a trace feeds
    it one sample per record, a Section IV schedule one per datagram
    (its packets' wire bytes summed).  The byte sums are integers, so
    both give the same series.  ``times`` are in capture order.

    Raises:
        AnalysisError: for no samples or a nonpositive interval.
    """
    if interval <= 0:
        raise AnalysisError("interval must be positive")
    if not times:
        raise AnalysisError("cannot compute bandwidth of an empty trace")
    origin = times[0]
    horizon = times[-1] - origin
    buckets = [0] * (int(math.floor(horizon / interval)) + 1)
    for time, amount in zip(times, nbytes):
        buckets[int((time - origin) / interval)] += amount
    return [(index * interval, total * 8.0 / interval / 1000.0)
            for index, total in enumerate(buckets)]


def average_kbps(series: List[Tuple[float, float]]) -> float:
    """Mean of a bandwidth series' rate values.

    Raises:
        AnalysisError: for an empty series.
    """
    if not series:
        raise AnalysisError("empty bandwidth series")
    return sum(rate for _, rate in series) / len(series)
