"""The telemetry subsystem: registry, bus, sinks, exports, profiler,
and the instrumented-layer contract (deterministic, observational-only,
near-zero cost when disabled)."""

import gc
import io
import json
import pickle
import weakref

import pytest

from repro.errors import AnalysisError
from repro.experiments.datasets import build_table1_library
from repro.experiments.runner import run_pair_experiment, run_study
from repro.netsim.engine import Simulator
from repro.players.buffer import DelayBuffer
from repro.telemetry import (
    FRAGMENT_EMITTED,
    Histogram,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    NullSink,
    PACKET_ENQUEUED,
    PLAYOUT_START,
    QUEUE_DROP,
    REBUFFER_START,
    REBUFFER_STOP,
    STREAM_START,
    SimProfiler,
    Telemetry,
    TraceEventBus,
    load_summary,
    rebuffer_timeline,
    series_csv,
    summary_csv,
    summary_dict,
    to_json,
)
from repro.telemetry import events as events_module
from repro.telemetry.registry import DEFAULT_SERIES_LIMIT


def small_pair(duration_scale=0.05):
    """First set's broadband pair — WMP ADUs fragment at ~300 Kbps."""
    library = build_table1_library(duration_scale=duration_scale)
    clip_set = next(iter(library))
    band = clip_set.bands[-1]
    return clip_set, clip_set.pairs[band]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_counters_keyed_by_name_and_labels(self):
        registry = MetricsRegistry()
        registry.counter("drops", link="a").inc()
        registry.counter("drops", link="a").inc(2)
        registry.counter("drops", link="b").inc()
        values = {labels: counter.value
                  for name, labels, counter in registry.counters()}
        assert values[(("link", "a"),)] == 3
        assert values[(("link", "b"),)] == 1

    def test_gauge_records_sim_time_series_and_peak(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10.0, 1.0)
        gauge.set(40.0, 2.0)
        gauge.set(5.0, 3.0)
        assert gauge.value == 5.0
        assert gauge.peak == 40.0
        assert list(gauge.series) == [(1.0, 10.0), (2.0, 40.0), (3.0, 5.0)]

    def test_gauge_series_is_bounded(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        for step in range(DEFAULT_SERIES_LIMIT + 6):
            gauge.set(float(step), float(step))
        assert len(gauge.series) == DEFAULT_SERIES_LIMIT
        assert list(gauge.series)[0] == (6.0, 6.0)

    def test_context_labels_scope_instruments(self):
        registry = MetricsRegistry()
        registry.set_context(run="set1-l")
        registry.counter("drops", link="a").inc()
        registry.set_context(run="set2-l")
        registry.counter("drops", link="a").inc(5)
        registry.clear_context()
        values = {labels: counter.value
                  for name, labels, counter in registry.counters()}
        assert values[(("link", "a"), ("run", "set1-l"))] == 1
        assert values[(("link", "a"), ("run", "set2-l"))] == 5

    @pytest.mark.parametrize("boundary", [
        lambda registry: registry.set_context(run="set2-l"),
        MetricsRegistry.clear_context,
    ], ids=["set_context", "clear_context"])
    def test_tracked_counter_reads_its_owners_until_a_boundary(
            self, boundary):
        class Stats:
            sent = 0

        registry = MetricsRegistry()
        first, second = Stats(), Stats()
        registry.track("sent", first, "sent", link="a")
        registry.track("sent", second, "sent", link="a")
        counter = registry.counter("sent", link="a")
        counter.inc(5)
        first.sent, second.sent = 3, 4
        assert counter.value == 12
        first.sent += 1
        assert counter.value == 13
        owner = weakref.ref(first)
        boundary(registry)
        del first
        gc.collect()
        assert owner() is None
        second.sent = 100
        assert counter.value == 13


class TestHistogram:
    def test_observe_tracks_count_sum_min_max(self):
        histogram = Histogram(bounds=(1, 10, 100))
        for value in (0.5, 5, 50, 500):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == 555.5
        assert histogram.min == 0.5
        assert histogram.max == 500
        assert histogram.bucket_counts == [1, 1, 1, 1]

    def test_merge_is_exact(self):
        a = Histogram(bounds=(1, 10, 100))
        b = Histogram(bounds=(1, 10, 100))
        for value in (0.5, 5, 5, 50):
            a.observe(value)
        for value in (200, 0.1, 7):
            b.observe(value)
        merged = Histogram(bounds=(1, 10, 100))
        merged.merge(a)
        merged.merge(b)
        # The merge must equal observing every sample directly.
        direct = Histogram(bounds=(1, 10, 100))
        for value in (0.5, 5, 5, 50, 200, 0.1, 7):
            direct.observe(value)
        assert merged.bucket_counts == direct.bucket_counts
        assert merged.count == direct.count
        assert merged.total == direct.total
        assert merged.min == direct.min
        assert merged.max == direct.max

    def test_merge_rejects_mismatched_bounds(self):
        a = Histogram(bounds=(1, 10))
        b = Histogram(bounds=(1, 100))
        with pytest.raises(AnalysisError):
            a.merge(b)

    def test_registry_merged_histogram_spans_label_sets(self):
        registry = MetricsRegistry()
        registry.histogram("gap", bounds=(1, 10), link="a").observe(0.5)
        registry.histogram("gap", bounds=(1, 10), link="b").observe(5)
        merged = registry.merged_histogram("gap")
        assert merged.count == 2
        assert merged.bucket_counts == [1, 1, 0]

    def test_quantile_upper_bound(self):
        histogram = Histogram(bounds=(1, 10, 100))
        for value in (0.5, 0.6, 5, 50):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 1
        assert histogram.quantile(1.0) == 100


# ----------------------------------------------------------------------
# Bus + sinks
# ----------------------------------------------------------------------

class TestBusAndSinks:
    def test_memory_sink_rings(self):
        sink = MemorySink(capacity=3)
        bus = TraceEventBus(sinks=[sink])
        for index in range(5):
            bus.emit(QUEUE_DROP, float(index))
        assert len(sink) == 3
        assert sink.dropped == 2
        assert [event.time for event in sink.events] == [2.0, 3.0, 4.0]

    def test_null_sink_allocates_nothing_on_hot_path(self, monkeypatch):
        constructed = []

        class ExplodingEvent:
            def __init__(self, *args, **kwargs):
                constructed.append(1)

        monkeypatch.setattr(events_module, "TraceEvent", ExplodingEvent)
        bus = TraceEventBus(sinks=[NullSink()])
        assert not bus.active
        for index in range(100):
            bus.emit(QUEUE_DROP, float(index), queue_bytes=10)
        assert constructed == []

    def test_jsonl_sink_writes_canonical_lines(self):
        buffer = io.StringIO()
        bus = TraceEventBus(sinks=[JsonlSink(buffer)])
        bus.set_context(run="set1-l")
        bus.emit(QUEUE_DROP, 1.25, queue_bytes=512)
        bus.close()
        record = json.loads(buffer.getvalue())
        assert record == {"type": "queue_drop", "time": 1.25, "seq": 0,
                          "queue_bytes": 512, "run": "set1-l"}

    def test_sequence_numbers_are_monotonic(self):
        sink = MemorySink()
        bus = TraceEventBus(sinks=[sink])
        for index in range(4):
            bus.emit(QUEUE_DROP, 0.0)
        assert [event.sequence for event in sink.events] == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# Engine integration: pending counter + profiler
# ----------------------------------------------------------------------

class TestEngineIntegration:
    def test_pending_counter_tracks_schedule_cancel_run(self):
        sim = Simulator()
        events = [sim.schedule_at(float(i), lambda: None) for i in range(5)]
        assert sim.pending_events == 5
        sim.cancel(events[0])
        sim.cancel(events[0])  # double cancel must not double-decrement
        assert sim.pending_events == 4
        sim.run(until=2.5)
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0

    def test_cancel_after_fire_is_a_noop(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        sim.run()
        assert sim.pending_events == 0
        sim.cancel(event)
        assert sim.pending_events == 0

    def test_pending_counter_with_step(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        cancelled = sim.schedule_at(2.0, lambda: None)
        sim.cancel(cancelled)
        sim.schedule_at(3.0, lambda: None)
        assert sim.pending_events == 2
        assert sim.step()
        assert sim.pending_events == 1
        assert sim.step()
        assert not sim.step()
        assert sim.pending_events == 0

    def test_profiler_samples_run(self):
        telemetry = Telemetry(sinks=[NullSink()],
                              profiler=SimProfiler(sample_interval=10))
        sim = Simulator(seed=3, telemetry=telemetry)
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 500:
                sim.schedule_in(0.001, tick)

        sim.schedule_in(0.0, tick)
        sim.run()
        report = telemetry.profiler.report
        assert report.events_executed == 500
        assert report.wall_seconds > 0
        assert report.heap_samples
        assert any("tick" in name for name in report.callbacks)
        assert "events/s" in report.render()

    def test_simulator_binds_telemetry_clock(self):
        telemetry = Telemetry(sinks=[NullSink()])
        sim = Simulator(seed=1, telemetry=telemetry)
        sim.schedule_at(4.0, lambda: None)
        sim.run()
        assert telemetry.now() == 4.0


# ----------------------------------------------------------------------
# DelayBuffer events
# ----------------------------------------------------------------------

class TestBufferEvents:
    def test_playout_and_rebuffer_cycle(self):
        sink = MemorySink()
        telemetry = Telemetry(sinks=[sink])
        buffer = DelayBuffer(preroll_seconds=1.0, telemetry=telemetry,
                             label="real")
        buffer.add_media(0.0, 1.0)      # fills preroll; playout starts
        assert buffer.occupancy(3.0) == 0.0  # drains dry at t=1.0
        buffer.add_media(4.0, 0.5)      # media returns
        types = [(event.type, event.time) for event in sink.events]
        assert (PLAYOUT_START, 0.0) in types
        assert (REBUFFER_START, 1.0) in types
        assert (REBUFFER_STOP, 4.0) in types
        assert buffer.underruns == 1

    def test_occupancy_gauge_sampled(self):
        telemetry = Telemetry(sinks=[NullSink()])
        buffer = DelayBuffer(preroll_seconds=5.0, telemetry=telemetry,
                             label="wmp")
        buffer.add_media(0.0, 2.0)
        buffer.add_media(1.0, 3.0)
        series = telemetry.registry.gauge_series("buffer.media_seconds")
        assert len(series) == 1
        labels, samples = series[0]
        assert ("player", "wmp") in labels
        assert samples == [(0.0, 2.0), (1.0, 5.0)]


# ----------------------------------------------------------------------
# Instrumented experiment runs
# ----------------------------------------------------------------------

class TestInstrumentedRuns:
    @pytest.fixture(scope="class")
    def instrumented(self):
        clip_set, pair = small_pair()
        telemetry = Telemetry()
        result = run_pair_experiment(clip_set, pair, seed=11,
                                     telemetry=telemetry)
        return telemetry, result

    def test_queue_depth_gauges_cover_the_path(self, instrumented):
        telemetry, _ = instrumented
        series = telemetry.registry.gauge_series("queue.bytes")
        assert len(series) >= 2  # at least client/server edge queues
        assert all(samples for _, samples in series)

    def test_wmp_fragmentation_reaches_the_bus(self, instrumented):
        telemetry, _ = instrumented
        events = telemetry.memory_events()
        assert any(event.type == FRAGMENT_EMITTED for event in events)
        merged = telemetry.registry.merged_histogram(
            "ip.fragments_per_datagram")
        assert merged.count > 0
        assert merged.max > 1  # broadband WMP ADUs always fragment

    def test_stream_lifecycle_events_present(self, instrumented):
        telemetry, _ = instrumented
        starts = [event for event in telemetry.memory_events()
                  if event.type == STREAM_START]
        families = {event.field_dict()["family"] for event in starts}
        assert families == {"real", "wmp"}

    def test_telemetry_is_observational_only(self):
        clip_set, pair = small_pair()
        plain = run_pair_experiment(clip_set, pair, seed=11)
        telemetry = Telemetry()
        observed = run_pair_experiment(clip_set, pair, seed=11,
                                       telemetry=telemetry)
        assert (plain.real_stats.packets_received
                == observed.real_stats.packets_received)
        assert (plain.wmp_stats.packets_received
                == observed.wmp_stats.packets_received)
        assert plain.real_stats.bytes_received == observed.real_stats.bytes_received
        assert plain.conditions == observed.conditions

    def test_queue_drops_surface_under_loss_conditions(self):
        # A congested narrow link forces drop-tail action.
        from repro import units
        from repro.netsim.addressing import IPAddress
        from repro.netsim.link import Link
        from repro.netsim.node import Host

        telemetry = Telemetry()
        sim = Simulator(seed=2, telemetry=telemetry)
        left = Host(sim, "left", IPAddress.parse("10.0.0.1"))
        right = Host(sim, "right", IPAddress.parse("10.0.0.2"))
        Link(sim, left, right, bandwidth_bps=units.kbps(64),
             queue_capacity_bytes=4096)
        left.routing.set_default(right)
        right.routing.set_default(left)
        source = left.udp.bind_ephemeral()
        for index in range(40):
            sim.schedule_at(index * 0.001, source.send,
                            right.address, 7000, 1400)
        sim.run()
        drops = [event for event in telemetry.memory_events()
                 if event.type == QUEUE_DROP]
        assert drops
        counted = sum(counter.value for name, _, counter
                      in telemetry.registry.counters()
                      if name == "queue.drops")
        assert counted == len(drops)


# ----------------------------------------------------------------------
# Determinism + exports
# ----------------------------------------------------------------------

class TestExports:
    @staticmethod
    def run_once(seed):
        buffer = io.StringIO()
        telemetry = Telemetry(sinks=[MemorySink(), JsonlSink(buffer)])
        clip_set, pair = small_pair(duration_scale=0.04)
        run_pair_experiment(clip_set, pair, seed=seed, telemetry=telemetry)
        return telemetry, buffer.getvalue()

    def test_same_seed_byte_identical_exports(self):
        telemetry_a, jsonl_a = self.run_once(21)
        telemetry_b, jsonl_b = self.run_once(21)
        assert to_json(telemetry_a) == to_json(telemetry_b)
        assert jsonl_a == jsonl_b
        assert series_csv(telemetry_a.registry) == series_csv(
            telemetry_b.registry)

    def test_different_seed_differs(self):
        telemetry_a, _ = self.run_once(21)
        telemetry_b, _ = self.run_once(22)
        assert to_json(telemetry_a) != to_json(telemetry_b)

    def test_json_round_trip(self):
        telemetry, _ = self.run_once(33)
        text = to_json(telemetry)
        loaded = load_summary(text)
        assert loaded == summary_dict(telemetry)
        # Re-encoding the loaded dict reproduces the bytes.
        assert json.dumps(loaded, sort_keys=True, indent=2) == text
        # A worker-style snapshot: once the context change has settled
        # the tracked counters, it pickles and merges back to the same
        # export.
        telemetry.clear_context()
        clone = Telemetry()
        clone.merge(pickle.loads(pickle.dumps(telemetry.snapshot())))
        assert to_json(clone) == text

    def test_summary_and_series_csv_shapes(self):
        telemetry, _ = self.run_once(33)
        summary = summary_csv(telemetry)
        header, *rows = summary.splitlines()
        assert header == "kind,name,labels,value,peak"
        assert any(row.startswith("counter,link.packets_sent") for row in rows)
        series = series_csv(telemetry.registry, names=["queue.bytes"])
        lines = series.splitlines()
        assert lines[0] == "name,labels,time,value"
        assert all(line.startswith("queue.bytes,") for line in lines[1:])
        assert len(lines) > 1

    def test_rebuffer_timeline_extraction(self):
        sink = MemorySink()
        telemetry = Telemetry(sinks=[sink])
        buffer = DelayBuffer(preroll_seconds=1.0, telemetry=telemetry,
                             label="real")
        buffer.add_media(0.0, 1.0)
        buffer.occupancy(2.0)
        buffer.add_media(3.0, 0.5)
        timeline = rebuffer_timeline(sink.events)
        assert timeline == {"real": [(PLAYOUT_START, 0.0),
                                     (REBUFFER_START, 1.0),
                                     (REBUFFER_STOP, 3.0)]}


# ----------------------------------------------------------------------
# Study-level threading
# ----------------------------------------------------------------------

class TestStudyThreading:
    def test_run_study_returns_shared_telemetry(self):
        telemetry = Telemetry()
        study = run_study(seed=9, duration_scale=0.02, telemetry=telemetry)
        assert study.telemetry is telemetry
        run_labels = set()
        for name, labels, counter in telemetry.registry.counters():
            run_labels.update(value for key, value in labels if key == "run")
        # Every pair run contributed under its own context label.
        assert run_labels == {run.label for run in study.runs}
        assert len(study) == len(run_labels)
        # Each context change settled the finished run's counters, so
        # only the simulator the facade's clock is bound to stays alive.
        gc.collect()
        assert sum(1 for obj in gc.get_objects()
                   if isinstance(obj, Simulator)
                   and obj.telemetry is telemetry) <= 1

    def test_run_study_without_telemetry_has_none(self):
        study = run_study(seed=9, duration_scale=0.02)
        assert study.telemetry is None
