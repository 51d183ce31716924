"""The streaming-summary monoid laws and cross-path identity.

The bounded-memory fold (``repro.telemetry.streaming``) earns its place
by obeying three laws — fold order-insensitivity, merge associativity /
commutativity with an identity, export-time-only derivation — and by
producing byte-identical canonical JSON whether a study ran
sequentially, across worker processes, or came back from the disk
cache.  Property tests pin the laws over arbitrary event multisets;
integration tests pin the cross-path identity on a real (tiny) study.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.telemetry.events import (
    FAULT_INJECTED,
    FRAGMENT_EMITTED,
    PACKET_DELIVERED,
    PACKET_LOSS,
    REBUFFER_START,
    REBUFFER_STOP,
    TraceEvent,
)
from repro.telemetry.streaming import (
    ExactSumHistogram,
    StreamingSummary,
    TopKSketch,
    fold_events,
)

# ----------------------------------------------------------------------
# Synthetic event strategy: a small entity domain (well inside the
# sketch capacity) crossed with the turbulence-relevant event types.
# ----------------------------------------------------------------------

_TIMES = st.floats(min_value=0.0, max_value=1000.0,
                   allow_nan=False, allow_infinity=False)


@st.composite
def trace_events(draw):
    kind = draw(st.sampled_from([
        PACKET_DELIVERED, PACKET_LOSS, FRAGMENT_EMITTED,
        REBUFFER_START, REBUFFER_STOP, FAULT_INJECTED]))
    time = draw(_TIMES)
    fields = ()
    if kind == PACKET_DELIVERED:
        fields = (("link", draw(st.sampled_from(["a->b", "b->c", "c->d"]))),
                  ("packet_bytes", draw(st.integers(0, 1500))))
    elif kind == PACKET_LOSS:
        fields = (("link", draw(st.sampled_from(["a->b", "b->c"]))),)
    elif kind == FRAGMENT_EMITTED:
        fields = (("fragments", draw(st.integers(1, 5))),)
    elif kind in (REBUFFER_START, REBUFFER_STOP):
        fields = (("player", draw(st.sampled_from(["real", "wmp"]))),)
    return TraceEvent(type=kind, time=time, sequence=0, fields=fields)


event_lists = st.lists(trace_events(), max_size=120)


class TestFoldLaws:
    @given(events=event_lists, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_fold_is_order_insensitive(self, events, seed):
        shuffled = list(events)
        random.Random(seed).shuffle(shuffled)
        assert (fold_events(events).as_dict()
                == fold_events(shuffled).as_dict())

    @given(events=event_lists, cut=st.integers(0, 120))
    @settings(max_examples=60, deadline=None)
    def test_merge_of_parts_equals_fold_of_whole(self, events, cut):
        cut = min(cut, len(events))
        left = fold_events(events[:cut])
        left.merge(fold_events(events[cut:]))
        assert left.as_dict() == fold_events(events).as_dict()

    @given(events=event_lists,
           cuts=st.tuples(st.integers(0, 120), st.integers(0, 120)))
    @settings(max_examples=60, deadline=None)
    def test_merge_is_associative(self, events, cuts):
        lo, hi = sorted(min(c, len(events)) for c in cuts)
        parts = [events[:lo], events[lo:hi], events[hi:]]

        left = fold_events(parts[0])
        left.merge(fold_events(parts[1]))
        left.merge(fold_events(parts[2]))

        tail = fold_events(parts[1])
        tail.merge(fold_events(parts[2]))
        right = fold_events(parts[0])
        right.merge(tail)

        assert left.as_dict() == right.as_dict()

    @given(events=event_lists, cut=st.integers(0, 120))
    @settings(max_examples=40, deadline=None)
    def test_merge_is_commutative(self, events, cut):
        cut = min(cut, len(events))
        ab = fold_events(events[:cut])
        ab.merge(fold_events(events[cut:]))
        ba = fold_events(events[cut:])
        ba.merge(fold_events(events[:cut]))
        assert ab.as_dict() == ba.as_dict()

    @given(events=event_lists)
    @settings(max_examples=40, deadline=None)
    def test_identity_element(self, events):
        summary = fold_events(events)
        before = summary.as_dict()
        summary.merge(StreamingSummary())
        assert summary.as_dict() == before

        identity = StreamingSummary()
        identity.merge(fold_events(events))
        assert identity.as_dict() == before

    def test_derived_metrics_only_at_export(self):
        summary = StreamingSummary()
        for time, etype in ((0.0, REBUFFER_START), (2.0, REBUFFER_STOP)):
            summary.fold(TraceEvent(type=etype, time=time, sequence=0))
        turbulence = summary.as_dict()["turbulence"]
        assert turbulence["rebuffer_seconds"] == pytest.approx(2.0)
        assert turbulence["rebuffer_ratio"] == pytest.approx(1.0)
        # Folded state holds the ledger, never the ratio.
        assert not hasattr(summary.rollup, "rebuffer_ratio")


class TestExactSumHistogram:
    @given(values=st.lists(st.floats(min_value=0.0, max_value=1e5,
                                     allow_nan=False), max_size=100),
           cut=st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_partial_sums_merge_bit_exact(self, values, cut):
        cut = min(cut, len(values))
        whole = ExactSumHistogram()
        for value in values:
            whole.observe(value)
        left = ExactSumHistogram()
        for value in values[:cut]:
            left.observe(value)
        right = ExactSumHistogram()
        for value in values[cut:]:
            right.observe(value)
        left.merge(right)
        assert left.sum_fp == whole.sum_fp
        assert left.exact_total == whole.exact_total
        assert left.count == whole.count
        assert left.bucket_counts == whole.bucket_counts


class TestTopKSketch:
    def test_exact_within_capacity(self):
        sketch = TopKSketch(capacity=4)
        for key, times in (("a", 3), ("b", 2), ("c", 1)):
            for _ in range(times):
                sketch.observe(key)
        assert sketch.top() == [("a", 3), ("b", 2), ("c", 1)]
        assert sketch.evicted_updates == 0
        assert sketch.total == 6

    def test_deterministic_eviction(self):
        def build(order):
            sketch = TopKSketch(capacity=2)
            for key in order:
                sketch.observe(key)
            return sketch

        first = build(["a", "a", "b", "c", "a", "d"])
        second = build(["a", "a", "b", "c", "a", "d"])
        assert first.as_dict() == second.as_dict()
        assert first.evicted_updates > 0
        assert first.total == 6  # spill keeps the total weight

    def test_capacity_mismatch_refuses_merge(self):
        with pytest.raises(AnalysisError):
            TopKSketch(capacity=2).merge(TopKSketch(capacity=3))


class TestStreamEquivalenceInvariant:
    """The checker's refold oracle over a hand-built bus."""

    def _armed_validator(self):
        from repro.telemetry import MemorySink, Telemetry
        from repro.telemetry.streaming import StreamingSink
        from repro.validate import RunValidator

        telemetry = Telemetry(sinks=[MemorySink(capacity=None)])
        summary = StreamingSummary()
        telemetry.bus.attach(StreamingSink(summary))

        class FakeSim:
            pending_events = 0

        sim = FakeSim()
        sim.telemetry = telemetry
        validator = RunValidator(raise_on_violation=False)
        validator.bind(sim)
        return telemetry, summary, validator

    def test_clean_fold_passes(self):
        telemetry, _, validator = self._armed_validator()
        telemetry.bus.emit(PACKET_DELIVERED, 1.0, packet_bytes=700)
        telemetry.bus.emit(PACKET_LOSS, 2.0)
        assert validator.check_run(run="synthetic") == []

    def test_corrupted_fold_is_caught(self):
        telemetry, summary, validator = self._armed_validator()
        telemetry.bus.emit(PACKET_DELIVERED, 1.0, packet_bytes=700)
        # Sabotage: the online fold absorbs an event the buffer never saw.
        summary.fold(TraceEvent(type=PACKET_LOSS, time=2.0, sequence=99))
        found = validator.check_run(run="synthetic")
        assert any(v.invariant == "stream-equivalence" for v in found)

    def test_invariant_is_cataloged(self):
        from repro.validate import INVARIANT_NAMES

        assert "stream-equivalence" in INVARIANT_NAMES


def _one_set_library(duration_scale=0.03):
    from repro.experiments.datasets import build_table1_library

    return build_table1_library(duration_scale=duration_scale).only_set(1)


class TestCrossPathIdentity:
    def test_sequential_vs_parallel_byte_identical(self):
        from repro.experiments.runner import run_study

        library = _one_set_library()
        sequential = run_study(library=library, seed=11,
                               jobs=1, stream=StreamingSummary())
        parallel = run_study(library=library, seed=11, jobs=2,
                             min_parallel_runs=0,
                             stream=StreamingSummary())
        assert sequential.streaming.to_json() == parallel.streaming.to_json()
        assert (sequential.streaming.fingerprint()
                == parallel.streaming.fingerprint())

    def test_pickle_round_trip_byte_identical(self):
        from repro.experiments.runner import run_study

        study = run_study(library=_one_set_library(), seed=11,
                          jobs=1, stream=StreamingSummary())
        clone = pickle.loads(pickle.dumps(study.streaming))
        assert clone.to_json() == study.streaming.to_json()

    def test_footprint_flat_in_event_count(self):
        # Folding 10x the events must not grow the structural state:
        # same entity domain, same taxonomy => same footprint.
        base = [TraceEvent(type=PACKET_DELIVERED, time=float(i),
                           sequence=i,
                           fields=(("link", f"l{i % 5}"),
                                   ("packet_bytes", 700)))
                for i in range(100)]
        small = fold_events(base)
        large = fold_events(base * 10)
        assert small.footprint() == large.footprint()
        assert large.events_folded == 10 * small.events_folded
        assert (len(pickle.dumps(large))
                <= len(pickle.dumps(small)) + 256)
