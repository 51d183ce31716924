"""The `Telemetry` facade: one handle for registry + bus + profiler.

Instrumented layers hold an optional ``Telemetry`` (usually via
``sim.telemetry``) and call ``tel.emit(...)`` behind a ``None`` check,
so the disabled path costs a single attribute load; counters read the
layers' own stats (``tel.registry.track``).  The facade carries the
simulated clock: :class:`~repro.netsim.engine.Simulator` binds itself
on construction, after which ``tel.now()`` is the simulation time and
every metric sample and trace event is stamped with it.

One facade may outlive many simulators (the study runner rebinds it to
each pair run's fresh ``Simulator``), which is what "a shared registry
across the sweep" means in practice: per-run context labels
(:meth:`set_context`) keep the runs' instruments distinct inside the
one registry, and each context change frees the finished run's layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.telemetry.events import TraceEventBus
from repro.telemetry.profiler import SimProfiler
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.sinks import MemorySink
from repro.telemetry.spans import SpanRecorder


@dataclass
class TelemetrySnapshot:
    """Everything one worker's telemetry saw, as plain picklable data.

    The facade itself cannot cross a process boundary (it binds the
    simulator clock as a closure), so parallel study workers ship one
    of these back instead: the registry's instruments, the full event
    stream in emission order as ``(type, time, fields)`` rows, and the
    span forest as flat rows with worker-local ids.  Rows rather than
    event/span objects because a study moves hundreds of thousands of
    them: tuples pickle an order of magnitude faster.
    :meth:`Telemetry.merge` folds a snapshot into a live facade.
    """

    registry: MetricsRegistry
    events: List[Tuple[str, float, Tuple]] = field(default_factory=list)
    spans: List[Tuple] = field(default_factory=list)


class Telemetry:
    """Aggregate handle threaded through the instrumented layers.

    Args:
        profiler: optional event-loop profiler; when present, every
            ``Simulator.run`` on a bound simulator is profiled.
        sinks: the trace-event bus's sinks; one
            :class:`~repro.telemetry.sinks.MemorySink` ring by default.
        spans: optional :class:`~repro.telemetry.spans.SpanRecorder`;
            when present, pacers/IP/links/queues/players record the
            per-ADU provenance forest.  Must be installed before any
            topology is built (layers cache the handle, like the rest
            of the facade).
    """

    def __init__(self, profiler: Optional[SimProfiler] = None,
                 sinks: Optional[Iterable[object]] = None,
                 spans: Optional[SpanRecorder] = None) -> None:
        self.registry = MetricsRegistry()
        self.bus = TraceEventBus(sinks=sinks if sinks is not None
                                 else [MemorySink()])
        self.profiler = profiler
        self.spans = spans
        self._clock = lambda: 0.0

    # ------------------------------------------------------------------
    # Clock binding
    # ------------------------------------------------------------------
    def bind(self, sim) -> None:
        """Adopt ``sim``'s clock; called by ``Simulator.__init__``."""
        self._clock = lambda: sim.now

    def now(self) -> float:
        """Current simulated time per the bound simulator."""
        return self._clock()

    # ------------------------------------------------------------------
    # Run scoping
    # ------------------------------------------------------------------
    def set_context(self, **labels: object) -> None:
        """Scope subsequent metrics and events (e.g. ``run="set1-l"``)."""
        self.registry.set_context(**labels)
        self.bus.set_context(**labels)
        if self.spans is not None:
            self.spans.set_context(**labels)

    def clear_context(self) -> None:
        self.registry.clear_context()
        self.bus.clear_context()
        if self.spans is not None:
            self.spans.clear_context()

    # ------------------------------------------------------------------
    # Emission shortcuts
    # ------------------------------------------------------------------
    def emit(self, event_type: str, **fields: object) -> None:
        """Publish a trace event stamped with the simulated clock."""
        self.bus.emit(event_type, self._clock(), **fields)

    def counter(self, name: str, **labels: object):
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: object):
        return self.registry.gauge(name, **labels)

    # ------------------------------------------------------------------
    # Cross-process snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> TelemetrySnapshot:
        """Freeze this facade's state as plain picklable data.

        Events come from the first attached :class:`MemorySink` (a
        worker facade uses a single unbounded one, so nothing is
        missing); spans come from the installed recorder, ids still
        worker-local.  The profiler is deliberately excluded — its
        wall-clock numbers are per-process and never exported.
        """
        return TelemetrySnapshot(
            registry=self.registry,
            events=[(event.type, event.time, event.fields)
                    for event in self.memory_events()],
            spans=(self.spans.export_rows()
                   if self.spans is not None else []))

    def merge(self, snapshot: TelemetrySnapshot) -> int:
        """Fold a worker snapshot into this facade.

        Metrics merge into the registry, events replay through the bus
        (renumbered with this bus's sequence, delivered to every
        attached sink), and spans are adopted with their ids rebased
        past this recorder's high-water mark.  Merging the per-run
        snapshots of a parallel study in library order reproduces the
        sequential sweep's registry, event stream, and span forest
        exactly.

        Returns:
            The span-id offset applied (0 when no spans merged), for
            rebasing trace records that captured worker-local ids.
        """
        self.registry.merge(snapshot.registry)
        if snapshot.events:
            self.bus.replay(snapshot.events)
        if snapshot.spans and self.spans is not None:
            return self.spans.absorb_rows(snapshot.spans)
        return 0

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def memory_events(self):
        """Events retained by the first MemorySink, if one is attached."""
        for sink in self.bus._sinks:
            if isinstance(sink, MemorySink):
                return list(sink.events)
        return []

    def dropped_events(self) -> int:
        """Events lost to memory-ring truncation across attached sinks.

        Nonzero means every event-derived view (timelines, summaries,
        replays) is missing the *oldest* part of the stream — exporters
        and the CLI surface this so truncation never looks like a
        quiet run.
        """
        return sum(sink.dropped for sink in self.bus._sinks
                   if isinstance(sink, MemorySink))

    def close(self) -> None:
        self.bus.close()
