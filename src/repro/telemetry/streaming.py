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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


class TurbulenceRollup:
    """The paper's turbulence story as O(1) commutative accumulators.

    Every field is a sum, count, or min/max over the event stream —
    never a ratio.  Rates and ratios (delivered kbps, rebuffer ratio,
    loss rate) are derived in :meth:`as_dict` from the folded state, so
    the roll-up itself remains a lawful monoid.  The rebuffer ledger
    uses the balance trick: summing stop timestamps and start
    timestamps *separately* makes total rebuffer duration an
    order-insensitive fold (Σstop − Σstart, plus ``last_time`` per
    still-open gap at export time).  Timestamp sums accumulate in
    fixed point (integer 1e-9 units) so fold and merge are *exactly*
    associative — see :class:`ExactSumHistogram` for why floats are not.
    """

    __slots__ = (
        "delivered_packets", "delivered_bytes", "lost_packets",
        "queue_drops", "frag_trains", "fragments", "stream_starts",
        "stream_ends", "playout_starts", "rebuffer_starts",
        "rebuffer_stops", "rebuffer_start_fp",
        "rebuffer_stop_fp", "faults_fired", "route_reconvergences",
        "tcp_retransmits", "keepalive_misses", "quality_downshifts",
        "quality_upshifts", "first_time", "last_time",
        "nacks_sent", "parity_groups", "parity_bytes",
        "retransmits_sent", "rtx_bytes", "repairs_parity", "repairs_rtx",
        "repairs_before_deadline", "repairs_abandoned",
        "qoe_runs", "qoe_sum_fp", "qoe_min_fp", "qoe_max_fp",
    )

    def __init__(self) -> None:
        self.delivered_packets = 0
        self.delivered_bytes = 0
        self.lost_packets = 0
        self.queue_drops = 0
        self.frag_trains = 0
        self.fragments = 0
        self.stream_starts = 0
        self.stream_ends = 0
        self.playout_starts = 0
        self.rebuffer_starts = 0
        self.rebuffer_stops = 0
        self.rebuffer_start_fp = 0
        self.rebuffer_stop_fp = 0
        self.faults_fired = 0
        self.route_reconvergences = 0
        self.tcp_retransmits = 0
        self.keepalive_misses = 0
        self.quality_downshifts = 0
        self.quality_upshifts = 0
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None
        # Loss repair + QoE (repro.repair); all zero on repair-free
        # runs, and the export omits the section entirely then so
        # legacy summaries stay byte-identical.
        self.nacks_sent = 0
        self.parity_groups = 0
        self.parity_bytes = 0
        self.retransmits_sent = 0
        self.rtx_bytes = 0
        self.repairs_parity = 0
        self.repairs_rtx = 0
        self.repairs_before_deadline = 0
        self.repairs_abandoned = 0
        self.qoe_runs = 0
        self.qoe_sum_fp = 0
        self.qoe_min_fp: Optional[int] = None
        self.qoe_max_fp: Optional[int] = None

    def fold(self, etype: str, time: float, fields: Dict[str, object]) -> None:
        if self.first_time is None or time < self.first_time:
            self.first_time = time
        if self.last_time is None or time > self.last_time:
            self.last_time = time
        if etype == PACKET_DELIVERED:
            self.delivered_packets += 1
            self.delivered_bytes += int(fields.get("packet_bytes", 0))
        elif etype == PACKET_LOSS:
            self.lost_packets += 1
        elif etype == QUEUE_DROP:
            self.queue_drops += 1
        elif etype == FRAGMENT_EMITTED:
            count = int(fields.get("fragments", 1))
            self.fragments += count
            if count >= 2:
                self.frag_trains += 1
        elif etype == STREAM_START:
            self.stream_starts += 1
        elif etype == STREAM_END:
            self.stream_ends += 1
        elif etype == PLAYOUT_START:
            self.playout_starts += 1
        elif etype == REBUFFER_START:
            self.rebuffer_starts += 1
            self.rebuffer_start_fp += _fp(time)
        elif etype == REBUFFER_STOP:
            self.rebuffer_stops += 1
            self.rebuffer_stop_fp += _fp(time)
        elif etype == FAULT_INJECTED:
            self.faults_fired += 1
        elif etype == ROUTE_RECONVERGED:
            self.route_reconvergences += 1
        elif etype == TCP_RETRANSMIT:
            self.tcp_retransmits += 1
        elif etype == KEEPALIVE_MISS:
            self.keepalive_misses += 1
        elif etype == QUALITY_DOWNSHIFT:
            self.quality_downshifts += 1
        elif etype == QUALITY_UPSHIFT:
            self.quality_upshifts += 1
        elif etype == NACK_SENT:
            self.nacks_sent += 1
        elif etype == FEC_PARITY_SENT:
            self.parity_groups += 1
            self.parity_bytes += int(fields.get("bytes", 0))
        elif etype == RETRANSMIT_SENT:
            self.retransmits_sent += 1
            self.rtx_bytes += int(fields.get("bytes", 0))
        elif etype == REPAIR_RECOVERED:
            if fields.get("method") == "parity":
                self.repairs_parity += 1
            else:
                self.repairs_rtx += 1
            if fields.get("before_deadline"):
                self.repairs_before_deadline += 1
        elif etype == REPAIR_ABANDONED:
            self.repairs_abandoned += 1
        elif etype == QOE_SCORE:
            self.qoe_runs += 1
            score_fp = _fp(float(fields.get("score", 0.0)))
            self.qoe_sum_fp += score_fp
            if self.qoe_min_fp is None or score_fp < self.qoe_min_fp:
                self.qoe_min_fp = score_fp
            if self.qoe_max_fp is None or score_fp > self.qoe_max_fp:
                self.qoe_max_fp = score_fp

    def merge(self, other: "TurbulenceRollup") -> None:
        self.delivered_packets += other.delivered_packets
        self.delivered_bytes += other.delivered_bytes
        self.lost_packets += other.lost_packets
        self.queue_drops += other.queue_drops
        self.frag_trains += other.frag_trains
        self.fragments += other.fragments
        self.stream_starts += other.stream_starts
        self.stream_ends += other.stream_ends
        self.playout_starts += other.playout_starts
        self.rebuffer_starts += other.rebuffer_starts
        self.rebuffer_stops += other.rebuffer_stops
        self.rebuffer_start_fp += other.rebuffer_start_fp
        self.rebuffer_stop_fp += other.rebuffer_stop_fp
        self.faults_fired += other.faults_fired
        self.route_reconvergences += other.route_reconvergences
        self.tcp_retransmits += other.tcp_retransmits
        self.keepalive_misses += other.keepalive_misses
        self.quality_downshifts += other.quality_downshifts
        self.quality_upshifts += other.quality_upshifts
        self.nacks_sent += other.nacks_sent
        self.parity_groups += other.parity_groups
        self.parity_bytes += other.parity_bytes
        self.retransmits_sent += other.retransmits_sent
        self.rtx_bytes += other.rtx_bytes
        self.repairs_parity += other.repairs_parity
        self.repairs_rtx += other.repairs_rtx
        self.repairs_before_deadline += other.repairs_before_deadline
        self.repairs_abandoned += other.repairs_abandoned
        self.qoe_runs += other.qoe_runs
        self.qoe_sum_fp += other.qoe_sum_fp
        if other.qoe_min_fp is not None and (
                self.qoe_min_fp is None
                or other.qoe_min_fp < self.qoe_min_fp):
            self.qoe_min_fp = other.qoe_min_fp
        if other.qoe_max_fp is not None and (
                self.qoe_max_fp is None
                or other.qoe_max_fp > self.qoe_max_fp):
            self.qoe_max_fp = other.qoe_max_fp
        if other.first_time is not None and (
                self.first_time is None or other.first_time < self.first_time):
            self.first_time = other.first_time
        if other.last_time is not None and (
                self.last_time is None or other.last_time > self.last_time):
            self.last_time = other.last_time

    # ------------------------------------------------------------------
    # Export-time derivations (never folded state)
    # ------------------------------------------------------------------
    @property
    def span_seconds(self) -> float:
        """Observed stream span (0 until two distinct timestamps fold)."""
        if self.first_time is None or self.last_time is None:
            return 0.0
        return self.last_time - self.first_time

    @property
    def rebuffer_seconds(self) -> float:
        """Total underrun time via the start/stop balance ledger."""
        open_gaps = self.rebuffer_starts - self.rebuffer_stops
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
        return bool(self.nacks_sent or self.parity_groups
                    or self.retransmits_sent or self.repairs_parity
                    or self.repairs_rtx or self.repairs_abandoned
                    or self.qoe_runs)

    def as_dict(self) -> Dict[str, object]:
        span = self.span_seconds
        attempted = (self.delivered_packets + self.lost_packets
                     + self.queue_drops)
        recoveries = {
            "route_reconverged": self.route_reconvergences,
            "tcp_retransmit": self.tcp_retransmits,
            "rebuffer_stop": self.rebuffer_stops,
            "keepalive_miss": self.keepalive_misses,
            "quality_downshift": self.quality_downshifts,
            "quality_upshift": self.quality_upshifts,
        }
        result = {
            "delivered_packets": self.delivered_packets,
            "delivered_bytes": self.delivered_bytes,
            "delivered_rate_kbps": round_export(
                self.delivered_bytes * 8.0 / 1000.0 / span if span else 0.0),
            "lost_packets": self.lost_packets,
            "queue_drops": self.queue_drops,
            "loss_rate": round_export(
                (self.lost_packets + self.queue_drops) / attempted
                if attempted else 0.0),
            "frag_trains": self.frag_trains,
            "fragments": self.fragments,
            "stream_starts": self.stream_starts,
            "stream_ends": self.stream_ends,
            "playout_starts": self.playout_starts,
            "rebuffer_starts": self.rebuffer_starts,
            "rebuffer_stops": self.rebuffer_stops,
            "rebuffer_seconds": round_export(self.rebuffer_seconds),
            "rebuffer_ratio": round_export(
                self.rebuffer_seconds / span if span else 0.0),
            "faults_fired": self.faults_fired,
            "recoveries": recoveries,
            "recovery_count": sum(recoveries.values()),
            "first_time": round_export(self.first_time),
            "last_time": round_export(self.last_time),
        }
        if self.repair_active:
            recovered = self.repairs_parity + self.repairs_rtx
            settled = recovered + self.repairs_abandoned
            result["repair"] = {
                "nacks_sent": self.nacks_sent,
                "parity_groups": self.parity_groups,
                "parity_bytes": self.parity_bytes,
                "retransmits_sent": self.retransmits_sent,
                "rtx_bytes": self.rtx_bytes,
                "recovered_parity": self.repairs_parity,
                "recovered_rtx": self.repairs_rtx,
                "recovered_before_deadline": self.repairs_before_deadline,
                "abandoned": self.repairs_abandoned,
                "repair_ratio": round_export(
                    recovered / settled if settled else 0.0),
                "qoe": {
                    "runs": self.qoe_runs,
                    "mean": round_export(
                        self.qoe_sum_fp / _FP_SCALE / self.qoe_runs
                        if self.qoe_runs else 0.0),
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

    One summary instance is a *monoid element*: ``spawn()`` yields the
    identity with the same configuration, :meth:`fold` absorbs one
    event into O(1) state, and :meth:`merge` combines two summaries
    associatively.  The study runner folds each pair run into a fresh
    spawn and merges per-run summaries in library order, so sequential,
    parallel, and cache-round-trip paths render byte-identical
    :meth:`to_json` output.
    """

    def __init__(self, sketch_capacity: int = DEFAULT_SKETCH_CAPACITY,
                 bounds: Optional[Sequence[float]] = None) -> None:
        self.sketch_capacity = sketch_capacity
        self.bounds: Tuple[float, ...] = (
            tuple(bounds) if bounds is not None else DEFAULT_BUCKET_BOUNDS)
        self.events_folded = 0
        self.events_by_type: Dict[str, int] = {}
        self.families = TopKSketch(sketch_capacity)
        self.packet_bytes = ExactSumHistogram(self.bounds)
        self.rollup = TurbulenceRollup()
        self.spans_folded = 0
        self.span_kinds: Dict[str, int] = {}
        self.span_seconds = ExactSumHistogram(self.bounds)

    # ------------------------------------------------------------------
    # Folding (the online path)
    # ------------------------------------------------------------------
    def fold(self, event: TraceEvent) -> None:
        """Absorb one trace event; O(1) work, no reference retained."""
        etype = event.type
        self.events_folded += 1
        by_type = self.events_by_type
        by_type[etype] = by_type.get(etype, 0) + 1
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
            self.spans_folded += 1
            kinds[span.kind] = kinds.get(span.kind, 0) + 1
            self.span_seconds.observe(span.duration)

    # ------------------------------------------------------------------
    # The monoid
    # ------------------------------------------------------------------
    def spawn(self) -> "StreamingSummary":
        """A fresh identity element with this summary's configuration."""
        return StreamingSummary(sketch_capacity=self.sketch_capacity,
                                bounds=self.bounds)

    def merge(self, other: "StreamingSummary") -> None:
        """Fold another summary in (associative, commutative, exact).

        Raises:
            AnalysisError: on configuration mismatch (different sketch
                capacity or histogram bounds cannot merge losslessly).
        """
        if (other.sketch_capacity != self.sketch_capacity
                or other.bounds != self.bounds):
            raise AnalysisError(
                "cannot merge streaming summaries with different "
                "configurations")
        self.events_folded += other.events_folded
        for etype, count in other.events_by_type.items():
            self.events_by_type[etype] = (
                self.events_by_type.get(etype, 0) + count)
        self.families.merge(other.families)
        self.packet_bytes.merge(other.packet_bytes)
        self.rollup.merge(other.rollup)
        self.spans_folded += other.spans_folded
        for kind, count in other.span_kinds.items():
            self.span_kinds[kind] = self.span_kinds.get(kind, 0) + count
        self.span_seconds.merge(other.span_seconds)

    # ------------------------------------------------------------------
    # Canonical export
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        return {
            "config": {"sketch_capacity": self.sketch_capacity,
                       "bounds": [round_export(b) for b in self.bounds]},
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
            "event_types": len(self.events_by_type),
            "family_keys": len(self.families),
            "packet_buckets": len(self.packet_bytes.bucket_counts),
            "span_kinds": len(self.span_kinds),
            "span_buckets": len(self.span_seconds.bucket_counts),
        }


class StreamingSink:
    """Bus sink that folds every event straight into a summary.

    Attach one per pair run (the runner spawns a fresh per-run summary
    from the study template, attaches this sink for the run's duration,
    then detaches it and merges the run's summary into the study's) —
    nothing is buffered, so the sink's footprint is the summary's.
    """

    active = True

    def __init__(self, summary: StreamingSummary) -> None:
        self.summary = summary

    def write(self, event: TraceEvent) -> None:
        self.summary.fold(event)


def fold_events(events: Iterable[TraceEvent],
                into: Optional[StreamingSummary] = None) -> StreamingSummary:
    """Fold an event sequence into a summary (fresh by default).

    The recompute half of the ``stream-equivalence`` invariant: folding
    a run's *buffered* events must reproduce the online summary.
    """
    summary = into if into is not None else StreamingSummary()
    fold = summary.fold
    for event in events:
        fold(event)
    return summary
