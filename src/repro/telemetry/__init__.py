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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".core": ("Telemetry", "TelemetrySnapshot"),
    ".critical_path": ("AduLatency", "HopTiming", "aggregate_attribution",
                       "attribute_latency", "attribution_dict", "slowest"),
    ".events": ("ABR_SEGMENT", "ABR_SWITCH", "ALL_EVENT_TYPES", "CC_STATE",
                "FRAGMENT_EMITTED", "PACKET_DELIVERED", "PACKET_ENQUEUED",
                "PACKET_LOSS", "PLAYOUT_START", "QUEUE_DROP", "RATE_SWITCH",
                "REASSEMBLY_TIMEOUT", "REBUFFER_START", "REBUFFER_STOP",
                "STREAM_END", "STREAM_START", "TraceEvent", "TraceEventBus"),
    ".exporters": ("load_summary", "rebuffer_timeline", "series_csv",
                   "summary_csv", "summary_dict", "to_json"),
    ".profiler": ("ProfileReport", "SimProfiler"),
    ".registry": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    ".sinks": ("JsonlSink", "MemorySink", "NullSink"),
    ".streaming": ("ExactSumHistogram", "StreamingSink", "StreamingSummary",
                   "TopKSketch", "TurbulenceRollup", "fold_events"),
    ".spans": ("ALL_SPAN_KINDS", "SPAN_ADU", "SPAN_BUFFER", "SPAN_PACKET",
               "SPAN_PROP", "SPAN_QUEUE", "SPAN_REASSEMBLY", "SPAN_TX", "Span",
               "SpanRecorder"),
    ".trace_export": ("chrome_trace", "span_record", "spans_jsonl",
                      "write_chrome_trace", "write_spans_jsonl"),
})
