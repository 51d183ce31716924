"""Bounded-memory online aggregation: fold the stream, keep O(1) state.

The buffering sinks (:class:`~repro.telemetry.sinks.MemorySink`, the
span recorder) retain *every* record, so a study's telemetry footprint
grows with run count — which is exactly what the fleet-scale roadmap
item forbids.  This module is the other discipline: a
:class:`StreamingSummary` *folds* each :class:`TraceEvent` (and each
closed span) into fixed-size state the moment it is emitted — counters
by type, the existing mergeable :class:`~repro.telemetry.registry.Histogram`
for packet sizes and span durations, a deterministic top-K
heavy-hitter sketch over event families, and a turbulence roll-up
(delivered rate, rebuffer ratio, fragment trains, recovery counts) —
and never looks at the record again.

Three laws make the summary trustworthy across execution paths:

* **fold is order-insensitive** — every reduction is commutative
  (counts add, min/max compare, the rebuffer ledger sums start and
  stop timestamps separately), so the per-run summary does not depend
  on event interleaving;
* **merge is associative and commutative with an empty identity** —
  bucket-wise and pointwise addition throughout (the sketch is exact,
  hence fully lawful, while its key set fits the capacity;
  past capacity its deterministic eviction keeps every *execution
  path* identical even though pathological merge orders could differ);
* **derived metrics are computed at export time only** — ratios and
  rates never live in folded state, so folding stays a pure monoid.

Together these are why the sequential loop, ``jobs=N`` workers (one
summary per run, shipped home in the
:class:`~repro.telemetry.core.TelemetrySnapshot`), and a disk-cache
round-trip all produce **byte-identical** canonical JSON, and why the
``stream-equivalence`` invariant (folded online == recomputed from the
buffered events) can be checked exactly.
"""

from __future__ import annotations

import hashlib
import json
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import AnalysisError
from repro.telemetry.events import (
    FAULT_INJECTED,
    FEC_PARITY_SENT,
    FLOAT_DECIMALS,
    FRAGMENT_EMITTED,
    KEEPALIVE_MISS,
    NACK_SENT,
    PACKET_DELIVERED,
    PACKET_LOSS,
    PLAYOUT_START,
    QOE_SCORE,
    QUALITY_DOWNSHIFT,
    QUALITY_UPSHIFT,
    QUEUE_DROP,
    REBUFFER_START,
    REBUFFER_STOP,
    REPAIR_ABANDONED,
    REPAIR_RECOVERED,
    RETRANSMIT_SENT,
    ROUTE_RECONVERGED,
    STREAM_END,
    STREAM_START,
    TCP_RETRANSMIT,
    TraceEvent,
    round_export,
)
from repro.telemetry.registry import DEFAULT_BUCKET_BOUNDS, Histogram

#: Default heavy-hitter capacity.  The event-family domain is bounded
#: by the taxonomy crossed with topology entity names (per-hop link
#: names × the three packet event types dominate; players, servers,
#: and controllers add a handful more) — comfortably inside this, so
#: the sketch stays exact (and its merge fully lawful) in practice.
#: Exactness also keeps "merge of per-run folds" equal to "one fold of
#: the whole buffered stream", the refold half of the
#: ``stream-equivalence`` oracle.
DEFAULT_SKETCH_CAPACITY = 256

#: Entity fields that qualify an event family, in preference order.
#: ``run`` is deliberately absent: a family key must never incorporate
#: the run label, or the sketch's key domain — and with it the summary
#: footprint — would grow linearly with run count.
_FAMILY_FIELDS: Tuple[str, ...] = (
    "family", "player", "controller", "scenario", "server", "host",
    "link", "queue",
)


#: Fixed-point scale for folded sums: one unit per 1e-9 (the same
#: resolution the export rounding keeps).
_FP_SCALE = 10 ** FLOAT_DECIMALS


def _fp(value: float) -> int:
    """Fixed-point encoding: integer sums are exactly associative."""
    return int(round(value * _FP_SCALE))


def _extreme(pick, mine, other):
    """``pick`` (min or max) of two optional extremes; None means
    nothing has folded on that side yet."""
    if mine is None or other is None:
        return other if mine is None else mine
    return pick(mine, other)


class ExactSumHistogram(Histogram):
    """A :class:`Histogram` whose running sum is exactly associative.

    Float addition is not associative, so per-run partial sums merged
    in library order can drift a last ulp from one continuous fold of
    the very same values — enough to break the byte-identity guarantee
    between the merged study summary and the ``stream-equivalence``
    refold.  This subclass additionally folds each observation at
    1e-9 resolution into an *integer* sum (:attr:`sum_fp`); integer
    addition is associative and commutative, so any grouping of folds
    and merges lands on identical bits.  Export paths read
    :attr:`exact_total` / :attr:`exact_mean`, never the float ``total``.
    """

    __slots__ = ("sum_fp",)

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        super().__init__(bounds)
        self.sum_fp = 0

    def observe(self, value: float) -> None:
        super().observe(value)
        self.sum_fp += _fp(value)

    def merge(self, other: "Histogram") -> None:
        super().merge(other)
        self.sum_fp += other.sum_fp

    @property
    def exact_total(self) -> float:
        return self.sum_fp / _FP_SCALE

    @property
    def exact_mean(self) -> float:
        return self.exact_total / self.count if self.count else 0.0


def _histogram_dict(histogram: ExactSumHistogram) -> Dict[str, object]:
    """The exporter-style rendering of one histogram (nonzero buckets)."""
    return {
        "count": histogram.count,
        "sum": round_export(histogram.exact_total),
        "min": round_export(histogram.min),
        "max": round_export(histogram.max),
        "mean": round_export(histogram.exact_mean),
        "buckets": [[round_export(bound), tally]
                    for bound, tally in zip(histogram.bounds,
                                            histogram.bucket_counts)
                    if tally > 0],
    }


class TopKSketch:
    """Deterministic bounded heavy-hitter counts over string keys.

    Exact counting while the key set fits ``capacity``; past that, the
    smallest counts (ties broken by key, reverse-lexicographic out
    first) spill into an aggregate ``evicted`` tally.  Both the
    retained set and the spill are pure functions of the observation
    multiset and order, so every execution path that sees the same
    stream renders the same sketch.
    """

    __slots__ = ("capacity", "counts", "evicted_updates", "evicted_total")

    def __init__(self, capacity: int = DEFAULT_SKETCH_CAPACITY) -> None:
        if capacity < 1:
            raise AnalysisError(f"sketch capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.counts: Dict[str, int] = {}
        #: How many eviction passes spilled keys (a "was I exact?" flag).
        self.evicted_updates = 0
        #: Total observation weight lost to evictions.
        self.evicted_total = 0

    def observe(self, key: str, amount: int = 1) -> None:
        counts = self.counts
        counts[key] = counts.get(key, 0) + amount
        if len(counts) > self.capacity:
            self._compact()

    def _compact(self) -> None:
        """Evict the lowest-count keys down to capacity, deterministically."""
        overflow = len(self.counts) - self.capacity
        if overflow <= 0:
            return
        # Sort ascending by count, then *descending* by key, so of two
        # equal-count keys the lexicographically-later one spills first.
        victims = sorted(self.counts.items(),
                         key=lambda item: (item[1], _ReverseStr(item[0])))
        for key, count in victims[:overflow]:
            del self.counts[key]
            self.evicted_total += count
        self.evicted_updates += 1

    def merge(self, other: "TopKSketch") -> None:
        """Pointwise-add another sketch, then re-evict to capacity.

        Raises:
            AnalysisError: when capacities differ (the merged sketch
                would not be comparable to either input).
        """
        if other.capacity != self.capacity:
            raise AnalysisError(
                "cannot merge sketches with different capacities")
        counts = self.counts
        for key, count in other.counts.items():
            counts[key] = counts.get(key, 0) + count
        self.evicted_updates += other.evicted_updates
        self.evicted_total += other.evicted_total
        if len(counts) > self.capacity:
            self._compact()

    def top(self, k: Optional[int] = None) -> List[Tuple[str, int]]:
        """Heaviest keys first (ties broken lexicographically)."""
        ranked = sorted(self.counts.items(),
                        key=lambda item: (-item[1], item[0]))
        return ranked if k is None else ranked[:k]

    @property
    def total(self) -> int:
        """All observation weight ever folded, evicted spill included."""
        return sum(self.counts.values()) + self.evicted_total

    def as_dict(self) -> Dict[str, object]:
        return {
            "capacity": self.capacity,
            "entries": [[key, count] for key, count in self.top()],
            "evicted_updates": self.evicted_updates,
            "evicted_total": self.evicted_total,
        }

    def __len__(self) -> int:
        return len(self.counts)


class _ReverseStr:
    """Sort adapter: orders strings in reverse without negation tricks."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value

    def __lt__(self, other: "_ReverseStr") -> bool:
        return self.value > other.value


#: The recovery signals the roll-up counts, in export order; each one's
#: ``recoveries`` key is its event type.
_RECOVERY_TYPES: Tuple[str, ...] = (
    ROUTE_RECONVERGED, TCP_RETRANSMIT, REBUFFER_STOP, KEEPALIVE_MISS,
    QUALITY_DOWNSHIFT, QUALITY_UPSHIFT,
)

#: Event types that only loss repair emits; any one of them arms the
#: roll-up's ``repair`` section.
_REPAIR_TYPES: Tuple[str, ...] = (
    NACK_SENT, FEC_PARITY_SENT, RETRANSMIT_SENT, REPAIR_RECOVERED,
    REPAIR_ABANDONED, QOE_SCORE,
)


class TurbulenceRollup:
    """The paper's turbulence story as O(1) commutative accumulators.

    One per-type tally, :attr:`by_type`, holds every count; the other
    fields hold only what a count cannot give (bytes, fragment sums,
    the parity and before-deadline splits of recoveries, the rebuffer
    and QoE sums, the observed time range).  Every field is a sum,
    count, or min/max over the event stream — never a ratio.  Counts,
    rates and ratios (delivered kbps, rebuffer ratio, loss rate) are
    derived in :meth:`as_dict` from the folded state, so the roll-up
    itself remains a lawful monoid.  The rebuffer ledger uses the
    balance trick: summing stop timestamps and start timestamps
    *separately* makes total rebuffer duration an order-insensitive
    fold (Σstop − Σstart, plus ``last_time`` per still-open gap at
    export time).  Timestamp sums accumulate in fixed point (integer
    1e-9 units) so fold and merge are *exactly* associative — see
    :class:`ExactSumHistogram` for why floats are not.
    """

    __slots__ = (
        "by_type", "delivered_bytes", "frag_trains", "fragments",
        "rebuffer_start_fp", "rebuffer_stop_fp", "first_time", "last_time",
        "parity_bytes", "rtx_bytes", "repairs_parity",
        "repairs_before_deadline", "qoe_sum_fp", "qoe_min_fp", "qoe_max_fp",
    )

    def __init__(self) -> None:
        #: Events folded, by type.
        self.by_type: Dict[str, int] = {}
        self.delivered_bytes = 0
        self.frag_trains = 0
        self.fragments = 0
        self.rebuffer_start_fp = 0
        self.rebuffer_stop_fp = 0
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None
        # Loss repair + QoE (repro.repair); all zero on repair-free
        # runs, and the export omits the section entirely then so
        # legacy summaries stay byte-identical.
        self.parity_bytes = 0
        self.rtx_bytes = 0
        self.repairs_parity = 0
        self.repairs_before_deadline = 0
        self.qoe_sum_fp = 0
        self.qoe_min_fp: Optional[int] = None
        self.qoe_max_fp: Optional[int] = None

    def fold(self, etype: str, time: float, fields: Dict[str, object]) -> None:
        by_type = self.by_type
        by_type[etype] = by_type.get(etype, 0) + 1
        if self.first_time is None or time < self.first_time:
            self.first_time = time
        if self.last_time is None or time > self.last_time:
            self.last_time = time
        if etype == PACKET_DELIVERED:
            self.delivered_bytes += int(fields.get("packet_bytes", 0))
        elif etype == FRAGMENT_EMITTED:
            count = int(fields.get("fragments", 1))
            self.fragments += count
            if count >= 2:
                self.frag_trains += 1
        elif etype == REBUFFER_START:
            self.rebuffer_start_fp += _fp(time)
        elif etype == REBUFFER_STOP:
            self.rebuffer_stop_fp += _fp(time)
        elif etype == FEC_PARITY_SENT:
            self.parity_bytes += int(fields.get("bytes", 0))
        elif etype == RETRANSMIT_SENT:
            self.rtx_bytes += int(fields.get("bytes", 0))
        elif etype == REPAIR_RECOVERED:
            if fields.get("method") == "parity":
                self.repairs_parity += 1
            if fields.get("before_deadline"):
                self.repairs_before_deadline += 1
        elif etype == QOE_SCORE:
            score_fp = _fp(float(fields.get("score", 0.0)))
            self.qoe_sum_fp += score_fp
            if self.qoe_min_fp is None or score_fp < self.qoe_min_fp:
                self.qoe_min_fp = score_fp
            if self.qoe_max_fp is None or score_fp > self.qoe_max_fp:
                self.qoe_max_fp = score_fp

    def merge(self, other: "TurbulenceRollup") -> None:
        by_type = self.by_type
        for etype, count in other.by_type.items():
            by_type[etype] = by_type.get(etype, 0) + count
        self.delivered_bytes += other.delivered_bytes
        self.frag_trains += other.frag_trains
        self.fragments += other.fragments
        self.rebuffer_start_fp += other.rebuffer_start_fp
        self.rebuffer_stop_fp += other.rebuffer_stop_fp
        self.parity_bytes += other.parity_bytes
        self.rtx_bytes += other.rtx_bytes
        self.repairs_parity += other.repairs_parity
        self.repairs_before_deadline += other.repairs_before_deadline
        self.qoe_sum_fp += other.qoe_sum_fp
        self.qoe_min_fp = _extreme(min, self.qoe_min_fp, other.qoe_min_fp)
        self.qoe_max_fp = _extreme(max, self.qoe_max_fp, other.qoe_max_fp)
        self.first_time = _extreme(min, self.first_time, other.first_time)
        self.last_time = _extreme(max, self.last_time, other.last_time)

    # ------------------------------------------------------------------
    # Export-time derivations (never folded state)
    # ------------------------------------------------------------------
    def count(self, etype: str) -> int:
        """Events of type ``etype`` folded so far."""
        return self.by_type.get(etype, 0)

    @property
    def span_seconds(self) -> float:
        """Observed stream span (0 until two distinct timestamps fold)."""
        if self.first_time is None or self.last_time is None:
            return 0.0
        return self.last_time - self.first_time

    @property
    def rebuffer_seconds(self) -> float:
        """Total underrun time via the start/stop balance ledger."""
        open_gaps = self.count(REBUFFER_START) - self.count(REBUFFER_STOP)
        closed = (self.rebuffer_stop_fp - self.rebuffer_start_fp) / _FP_SCALE
        if open_gaps > 0 and self.last_time is not None:
            closed += open_gaps * self.last_time
        return max(closed, 0.0)

    @property
    def repair_active(self) -> bool:
        """Whether any repair/QoE signal ever folded.

        Gates the export of the ``repair`` section: repair-free runs
        fold none of these events and must render the exact summary
        they always have.
        """
        return any(self.count(etype) for etype in _REPAIR_TYPES)

    def as_dict(self) -> Dict[str, object]:
        count = self.count
        span = self.span_seconds
        delivered = count(PACKET_DELIVERED)
        lost, drops = count(PACKET_LOSS), count(QUEUE_DROP)
        attempted = delivered + lost + drops
        recoveries = {etype: count(etype) for etype in _RECOVERY_TYPES}
        result = {
            "delivered_packets": delivered,
            "delivered_bytes": self.delivered_bytes,
            "delivered_rate_kbps": round_export(
                self.delivered_bytes * 8.0 / 1000.0 / span if span else 0.0),
            "lost_packets": lost,
            "queue_drops": drops,
            "loss_rate": round_export(
                (lost + drops) / attempted if attempted else 0.0),
            "frag_trains": self.frag_trains,
            "fragments": self.fragments,
            "stream_starts": count(STREAM_START),
            "stream_ends": count(STREAM_END),
            "playout_starts": count(PLAYOUT_START),
            "rebuffer_starts": count(REBUFFER_START),
            "rebuffer_stops": count(REBUFFER_STOP),
            "rebuffer_seconds": round_export(self.rebuffer_seconds),
            "rebuffer_ratio": round_export(
                self.rebuffer_seconds / span if span else 0.0),
            "faults_fired": count(FAULT_INJECTED),
            "recoveries": recoveries,
            "recovery_count": sum(recoveries.values()),
            "first_time": round_export(self.first_time),
            "last_time": round_export(self.last_time),
        }
        if self.repair_active:
            recovered = count(REPAIR_RECOVERED)
            settled = recovered + count(REPAIR_ABANDONED)
            qoe_runs = count(QOE_SCORE)
            result["repair"] = {
                "nacks_sent": count(NACK_SENT),
                "parity_groups": count(FEC_PARITY_SENT),
                "parity_bytes": self.parity_bytes,
                "retransmits_sent": count(RETRANSMIT_SENT),
                "rtx_bytes": self.rtx_bytes,
                "recovered_parity": self.repairs_parity,
                "recovered_rtx": recovered - self.repairs_parity,
                "recovered_before_deadline": self.repairs_before_deadline,
                "abandoned": count(REPAIR_ABANDONED),
                "repair_ratio": round_export(
                    recovered / settled if settled else 0.0),
                "qoe": {
                    "runs": qoe_runs,
                    "mean": round_export(
                        self.qoe_sum_fp / _FP_SCALE / qoe_runs
                        if qoe_runs else 0.0),
                    "min": round_export(
                        self.qoe_min_fp / _FP_SCALE
                        if self.qoe_min_fp is not None else None),
                    "max": round_export(
                        self.qoe_max_fp / _FP_SCALE
                        if self.qoe_max_fp is not None else None),
                },
            }
        return result


class StreamingSummary:
    """The bounded-memory study summary: fold events in, merge across.

    One summary instance is a *monoid element* of one fixed shape: a
    fresh ``StreamingSummary()`` is the identity, :meth:`fold` absorbs
    one event into O(1) state, and :meth:`merge` combines two summaries
    associatively.  The study runner folds each pair run into a fresh
    summary and merges per-run summaries in library order, so
    sequential, parallel, and cache-round-trip paths render
    byte-identical :meth:`to_json` output.
    """

    def __init__(self) -> None:
        self.families = TopKSketch()
        self.packet_bytes = ExactSumHistogram()
        self.rollup = TurbulenceRollup()
        self.span_kinds: Dict[str, int] = {}
        self.span_seconds = ExactSumHistogram()

    @property
    def events_by_type(self) -> Mapping[str, int]:
        """Events folded, by type: a read-only view of the roll-up's tally."""
        return MappingProxyType(self.rollup.by_type)

    @property
    def events_folded(self) -> int:
        return sum(self.rollup.by_type.values())

    @property
    def spans_folded(self) -> int:
        return sum(self.span_kinds.values())

    # ------------------------------------------------------------------
    # Folding (the online path)
    # ------------------------------------------------------------------
    def fold(self, event: TraceEvent) -> None:
        """Absorb one trace event; O(1) work, no reference retained."""
        etype = event.type
        fields = dict(event.fields)
        self.families.observe(self._family_key(etype, fields))
        if etype == PACKET_DELIVERED:
            self.packet_bytes.observe(float(fields.get("packet_bytes", 0)))
        self.rollup.fold(etype, event.time, fields)

    @staticmethod
    def _family_key(etype: str, fields: Dict[str, object]) -> str:
        for name in _FAMILY_FIELDS:
            value = fields.get(name)
            if value is not None:
                return f"{etype}:{value}"
        return etype

    def fold_spans(self, spans: Iterable[object]) -> None:
        """Absorb closed spans (per-kind counts + duration histogram)."""
        kinds = self.span_kinds
        for span in spans:
            if span.end is None:
                continue
            kinds[span.kind] = kinds.get(span.kind, 0) + 1
            self.span_seconds.observe(span.duration)

    # ------------------------------------------------------------------
    # The monoid
    # ------------------------------------------------------------------
    def merge(self, other: "StreamingSummary") -> None:
        """Fold another summary in (associative, commutative, exact)."""
        self.families.merge(other.families)
        self.packet_bytes.merge(other.packet_bytes)
        self.rollup.merge(other.rollup)
        for kind, count in other.span_kinds.items():
            self.span_kinds[kind] = self.span_kinds.get(kind, 0) + count
        self.span_seconds.merge(other.span_seconds)

    # ------------------------------------------------------------------
    # Canonical export
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        return {
            "config": {"sketch_capacity": DEFAULT_SKETCH_CAPACITY,
                       "bounds": [round_export(b)
                                  for b in DEFAULT_BUCKET_BOUNDS]},
            "events": {"folded": self.events_folded,
                       "by_type": dict(sorted(self.events_by_type.items()))},
            "families": self.families.as_dict(),
            "packet_bytes": _histogram_dict(self.packet_bytes),
            "turbulence": self.rollup.as_dict(),
            "spans": {"folded": self.spans_folded,
                      "by_kind": dict(sorted(self.span_kinds.items())),
                      "seconds": _histogram_dict(self.span_seconds)},
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, two-space indent) — the bytes
        the cross-path identity guarantee is stated over."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    def fingerprint(self) -> str:
        """sha256 prefix of the compact canonical encoding."""
        compact = json.dumps(self.as_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(compact.encode()).hexdigest()[:16]

    def footprint(self) -> Dict[str, int]:
        """Structural size of the folded state, for flatness checks.

        Every number here is bounded by configuration (sketch capacity,
        bucket count) or by the event/span taxonomy — none may grow
        with the number of runs or events folded.
        """
        return {
            "event_types": len(self.rollup.by_type),
            "family_keys": len(self.families),
            "packet_buckets": len(self.packet_bytes.bucket_counts),
            "span_kinds": len(self.span_kinds),
            "span_buckets": len(self.span_seconds.bucket_counts),
        }


class StreamingSink:
    """Bus sink that folds every event straight into a summary.

    Attach one per pair run (the runner folds each run into a fresh
    summary, attaches this sink for the run's duration, then detaches
    it and merges the run's summary into the study's) — nothing is
    buffered, so the sink's footprint is the summary's.
    """

    active = True

    def __init__(self, summary: StreamingSummary) -> None:
        self.summary = summary

    def write(self, event: TraceEvent) -> None:
        self.summary.fold(event)


def fold_events(events: Iterable[TraceEvent]) -> StreamingSummary:
    """Fold an event sequence into a fresh summary.

    The recompute half of the ``stream-equivalence`` invariant: folding
    a run's *buffered* events must reproduce the online summary.
    """
    summary = StreamingSummary()
    fold = summary.fold
    for event in events:
        fold(event)
    return summary
