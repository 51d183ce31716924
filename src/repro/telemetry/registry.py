"""Simulation-time-aware metrics: counters, gauges, streaming histograms.

The registry is the numeric half of the telemetry subsystem (trace
events are the other half, see :mod:`repro.telemetry.events`).  Every
instrument is keyed by ``(name, labels)`` so one registry can hold, for
example, a ``queue.bytes`` gauge per link direction per study run.
Timestamps are *simulated* seconds — the registry never reads the wall
clock, which is what makes exports byte-reproducible across runs with
the same seed.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import AnalysisError

#: Immutable, sorted label set — the dict key half of an instrument key.
LabelSet = Tuple[Tuple[str, str], ...]

#: Default streaming-histogram bucket boundaries: a geometric ladder
#: wide enough for byte sizes, depths, and sub-second gaps alike.
DEFAULT_BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    base * scale
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6)
    for base in (1.0, 2.0, 5.0)
) + (1e7,)

#: Gauges keep a bounded time series; old samples fall off the front.
DEFAULT_SERIES_LIMIT = 65536


def canonical_labels(labels: Dict[str, object]) -> LabelSet:
    """Labels as a hashable, deterministically-ordered tuple."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_labels(labels: LabelSet) -> str:
    """``{a=1,b=x}`` rendering used by exports and tables."""
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class Counter:
    """A monotonically-increasing count (packets sent, drops, ...): the
    :meth:`inc` total plus the fields :meth:`MetricsRegistry.track` adds."""

    __slots__ = ("_count", "_tracked")

    def __init__(self) -> None:
        self._count = 0
        self._tracked: Tuple[Tuple[object, str], ...] = ()

    def inc(self, amount: int = 1) -> None:
        self._count += amount

    @property
    def value(self) -> int:
        return self._count + sum(getattr(owner, field)
                                 for owner, field in self._tracked)


class Gauge:
    """A point-in-time value with a bounded simulated-time series.

    ``set`` records ``(sim_time, value)`` samples so exporters can
    reconstruct e.g. a per-hop queue-depth timeline; the series is a
    bounded deque of the most recent :data:`DEFAULT_SERIES_LIMIT` samples.
    """

    __slots__ = ("value", "series")

    def __init__(self) -> None:
        self.value = 0.0
        self.series: Deque[Tuple[float, float]] = deque(
            maxlen=DEFAULT_SERIES_LIMIT)

    def set(self, value: float, time: float) -> None:
        self.value = value
        self.series.append((time, value))

    @property
    def peak(self) -> float:
        """Largest value ever recorded in the retained series."""
        if not self.series:
            return self.value
        return max(v for _, v in self.series)


class Histogram:
    """A streaming histogram with fixed bucket bounds.

    Observations update count/sum/min/max plus a per-bucket tally; no
    raw samples are retained, so memory is O(buckets) regardless of how
    many packets a study pushes through.  Two histograms with the same
    bounds merge exactly (bucket-wise addition), which is how per-run
    registries roll up into study totals.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        bounds = tuple(bounds) if bounds is not None else DEFAULT_BUCKET_BOUNDS
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise AnalysisError("histogram bounds must be strictly increasing")
        self.bounds = bounds
        # One overflow bucket past the last bound.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one.

        Raises:
            AnalysisError: when bucket bounds differ (the merge would
                be lossy).
        """
        if other.bounds != self.bounds:
            raise AnalysisError("cannot merge histograms with different bounds")
        self.count += other.count
        self.total += other.total
        for index, tally in enumerate(other.bucket_counts):
            self.bucket_counts[index] += tally
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket tallies (upper bound)."""
        if not 0.0 <= q <= 1.0:
            raise AnalysisError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, tally in enumerate(self.bucket_counts):
            cumulative += tally
            if cumulative >= target:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max if self.max is not None else self.bounds[-1]
        return self.max if self.max is not None else self.bounds[-1]


class MetricsRegistry:
    """Get-or-create home for every instrument, keyed by (name, labels).

    A context label set (see :meth:`set_context`) is merged into every
    key at creation time — the experiment runner uses it to scope one
    shared registry to the pair run currently executing.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelSet], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelSet], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelSet], Histogram] = {}
        self._context: Dict[str, object] = {}
        self._unsettled: List[Counter] = []

    # ------------------------------------------------------------------
    # Context
    # ------------------------------------------------------------------
    def set_context(self, **labels: object) -> None:
        """Labels merged into every instrument created from now on.

        A change ends a run: its tracked counters freeze, so the
        registry keeps no finished run alive and pickles as numbers."""
        for counter in self._unsettled:
            counter._count, counter._tracked = counter.value, ()
        self._unsettled = []
        self._context = dict(labels)

    def clear_context(self) -> None:
        self.set_context()

    def _key(self, name: str, labels: Dict[str, object]) -> Tuple[str, LabelSet]:
        if self._context:
            merged = dict(self._context)
            merged.update(labels)
            return name, canonical_labels(merged)
        return name, canonical_labels(labels)

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        key = self._key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def track(self, name: str, owner: object, field: str,
              **labels: object) -> None:
        """Add ``owner.<field>`` to counter ``name`` until the next
        context change, which freezes the sum and drops ``owner``: a
        layer tracks the count its stats keep, with no second copy."""
        counter = self.counter(name, **labels)
        counter._tracked += ((owner, field),)
        self._unsettled.append(counter)

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = self._key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None,
                  **labels: object) -> Histogram:
        key = self._key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(bounds)
        return instrument

    # ------------------------------------------------------------------
    # Merging (parallel study workers -> the parent registry)
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's instruments into this one.

        Counters add, histograms merge bucket-wise, and gauges append
        the other registry's retained series (the other registry is
        treated as *later in time*: its last value wins).  Instruments
        absent here are adopted wholesale — the donor registry is a
        worker snapshot about to be discarded, so sharing the objects
        is safe.

        The study runner scopes every instrument with a ``run=<label>``
        context label, so in practice the key sets are disjoint and the
        merge is a plain union — the collision rules above exist for
        callers merging unscoped registries.
        """
        for key, counter in other._counters.items():
            mine = self._counters.get(key)
            if mine is None:
                self._counters[key] = counter
            else:
                mine.inc(counter.value)
        for key, gauge in other._gauges.items():
            mine = self._gauges.get(key)
            if mine is None:
                self._gauges[key] = gauge
            else:
                mine.series.extend(gauge.series)
                mine.value = gauge.value
        for key, histogram in other._histograms.items():
            mine = self._histograms.get(key)
            if mine is None:
                self._histograms[key] = histogram
            else:
                mine.merge(histogram)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counters(self) -> Iterator[Tuple[str, LabelSet, Counter]]:
        for (name, labels), instrument in sorted(self._counters.items()):
            yield name, labels, instrument

    def gauges(self) -> Iterator[Tuple[str, LabelSet, Gauge]]:
        for (name, labels), instrument in sorted(self._gauges.items()):
            yield name, labels, instrument

    def histograms(self) -> Iterator[Tuple[str, LabelSet, Histogram]]:
        for (name, labels), instrument in sorted(self._histograms.items()):
            yield name, labels, instrument

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))

    def merged_histogram(self, name: str) -> Histogram:
        """All same-named histograms folded together across label sets."""
        merged: Optional[Histogram] = None
        for metric_name, _, histogram in self.histograms():
            if metric_name != name:
                continue
            if merged is None:
                merged = Histogram(histogram.bounds)
            merged.merge(histogram)
        if merged is None:
            raise AnalysisError(f"no histogram named {name!r}")
        return merged

    def gauge_series(self, name: str) -> List[Tuple[LabelSet,
                                                    List[Tuple[float, float]]]]:
        """Every retained (time, value) series for gauges named ``name``."""
        return [(labels, list(gauge.series))
                for metric_name, labels, gauge in self.gauges()
                if metric_name == name]
