"""Simulation-time-aware metrics, tracing, and profiling.

The observability subsystem the measurement pipeline itself runs on:

* :mod:`~repro.telemetry.registry` — counters, gauges, streaming
  histograms keyed by ``(name, labels)``, stamped in simulated time;
* :mod:`~repro.telemetry.events` — the typed trace-event bus
  (``packet_enqueued``, ``queue_drop``, ``rebuffer_start``...);
* :mod:`~repro.telemetry.sinks` — in-memory ring, JSON-lines, null;
* :mod:`~repro.telemetry.profiler` — event-loop wall-clock sampling;
* :mod:`~repro.telemetry.exporters` — deterministic JSON/CSV artifacts;
* :mod:`~repro.telemetry.spans` — causal span tracing: one trace per
  ADU, pacer → fragments → hops → reassembly → playout;
* :mod:`~repro.telemetry.critical_path` — per-ADU latency attribution
  (queueing / serialization / propagation / reassembly / buffer);
* :mod:`~repro.telemetry.trace_export` — Chrome trace-event (Perfetto)
  and JSONL span exports, byte-identical under a fixed seed;
* :mod:`~repro.telemetry.core` — the :class:`Telemetry` facade every
  instrumented layer holds behind a ``None`` check;
* :mod:`~repro.telemetry.streaming` — bounded-memory online folds:
  mergeable :class:`StreamingSummary` (counters-by-type, heavy-hitter
  sketch, turbulence roll-up) with byte-identical output across
  sequential / parallel / cached execution.

Everything is opt-in: construct a :class:`Telemetry`, hand it to
``Simulator(seed, telemetry=...)`` (or ``run_study(telemetry=...)``),
and the hot layers light up.  Without it, the instrumented paths cost
one attribute load and a ``None`` check.
"""

from repro.telemetry.core import Telemetry, TelemetrySnapshot
from repro.telemetry.critical_path import (
    AduLatency,
    HopTiming,
    aggregate_attribution,
    attribute_latency,
    attribution_dict,
    slowest,
)
from repro.telemetry.events import (
    ABR_SEGMENT,
    ABR_SWITCH,
    ALL_EVENT_TYPES,
    CC_STATE,
    FRAGMENT_EMITTED,
    PACKET_DELIVERED,
    PACKET_ENQUEUED,
    PACKET_LOSS,
    PLAYOUT_START,
    QUEUE_DROP,
    RATE_SWITCH,
    REASSEMBLY_TIMEOUT,
    REBUFFER_START,
    REBUFFER_STOP,
    STREAM_END,
    STREAM_START,
    TraceEvent,
    TraceEventBus,
)
from repro.telemetry.exporters import (
    load_summary,
    rebuffer_timeline,
    series_csv,
    summary_csv,
    summary_dict,
    to_json,
)
from repro.telemetry.profiler import ProfileReport, SimProfiler
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.sinks import (
    JsonlSink,
    MemorySink,
    NullSink,
)
from repro.telemetry.streaming import (
    ExactSumHistogram,
    StreamingSink,
    StreamingSummary,
    TopKSketch,
    TurbulenceRollup,
    fold_events,
)
from repro.telemetry.spans import (
    ALL_SPAN_KINDS,
    SPAN_ADU,
    SPAN_BUFFER,
    SPAN_PACKET,
    SPAN_PROP,
    SPAN_QUEUE,
    SPAN_REASSEMBLY,
    SPAN_TX,
    Span,
    SpanRecorder,
)
from repro.telemetry.trace_export import (
    chrome_trace,
    span_record,
    spans_jsonl,
    write_chrome_trace,
    write_spans_jsonl,
)

__all__ = [
    "ABR_SEGMENT",
    "ABR_SWITCH",
    "ALL_EVENT_TYPES",
    "ALL_SPAN_KINDS",
    "AduLatency",
    "CC_STATE",
    "Counter",
    "ExactSumHistogram",
    "FRAGMENT_EMITTED",
    "Gauge",
    "Histogram",
    "HopTiming",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "NullSink",
    "PACKET_DELIVERED",
    "PACKET_ENQUEUED",
    "PACKET_LOSS",
    "PLAYOUT_START",
    "ProfileReport",
    "QUEUE_DROP",
    "RATE_SWITCH",
    "REASSEMBLY_TIMEOUT",
    "REBUFFER_START",
    "REBUFFER_STOP",
    "SPAN_ADU",
    "SPAN_BUFFER",
    "SPAN_PACKET",
    "SPAN_PROP",
    "SPAN_QUEUE",
    "SPAN_REASSEMBLY",
    "SPAN_TX",
    "STREAM_END",
    "STREAM_START",
    "SimProfiler",
    "Span",
    "SpanRecorder",
    "StreamingSink",
    "StreamingSummary",
    "Telemetry",
    "TelemetrySnapshot",
    "TopKSketch",
    "TraceEvent",
    "TraceEventBus",
    "TurbulenceRollup",
    "aggregate_attribution",
    "fold_events",
    "attribute_latency",
    "attribution_dict",
    "chrome_trace",
    "load_summary",
    "rebuffer_timeline",
    "series_csv",
    "slowest",
    "span_record",
    "spans_jsonl",
    "summary_csv",
    "summary_dict",
    "to_json",
    "write_chrome_trace",
    "write_spans_jsonl",
]
