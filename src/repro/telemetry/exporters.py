"""Exports: deterministic JSON/CSV summaries and per-run time series.

Two invariants drive the formats here:

* **Byte-identical under a fixed seed.**  Everything exported is
  derived from simulated time and seeded randomness; keys are sorted,
  floats are rounded to fixed precision, and wall-clock material (the
  profiler) is deliberately excluded.  Two studies with the same seed
  produce the same bytes — the property the telemetry tests pin.
* **Round-trippable.**  ``load_summary(to_json(tel))`` rebuilds the
  summary dict exactly, so downstream tooling (and the `repro
  telemetry` CLI test) can consume the artifact without bespoke
  parsing.
"""

from __future__ import annotations

import io
import json
from typing import Dict, Iterable, List, Optional, Tuple

from repro.telemetry.core import Telemetry
from repro.telemetry.events import (
    PLAYOUT_START,
    REBUFFER_START,
    REBUFFER_STOP,
    TraceEvent,
    round_export,
)
from repro.telemetry.registry import MetricsRegistry, format_labels


# ----------------------------------------------------------------------
# Summary (registry -> dict -> JSON/CSV)
# ----------------------------------------------------------------------

def summary_dict(telemetry: Telemetry) -> Dict[str, object]:
    """The whole registry plus event tallies as plain JSON-able data."""
    registry = telemetry.registry
    counters = [
        {"name": name, "labels": dict(labels), "value": counter.value}
        for name, labels, counter in registry.counters()
    ]
    gauges = [
        {"name": name, "labels": dict(labels),
         "last": round_export(gauge.value),
         "peak": round_export(gauge.peak),
         "samples": len(gauge.series)}
        for name, labels, gauge in registry.gauges()
    ]
    histograms = [
        {"name": name, "labels": dict(labels), "count": histogram.count,
         "sum": round_export(histogram.total),
         "min": round_export(histogram.min),
         "max": round_export(histogram.max),
         "mean": round_export(histogram.mean),
         "buckets": [[round_export(bound), tally]
                     for bound, tally in zip(histogram.bounds,
                                             histogram.bucket_counts)
                     if tally > 0]}
        for name, labels, histogram in registry.histograms()
    ]
    events = telemetry.memory_events()
    by_type: Dict[str, int] = {}
    for event in events:
        by_type[event.type] = by_type.get(event.type, 0) + 1
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        # ``dropped`` counts ring-buffer truncation: nonzero means the
        # tallies above describe only the *newest* part of the stream.
        "events": {"total": len(events),
                   "dropped": telemetry.dropped_events(),
                   "by_type": dict(sorted(by_type.items()))},
    }


def to_json(telemetry: Telemetry) -> str:
    """Canonical JSON export (sorted keys, two-space indent)."""
    return json.dumps(summary_dict(telemetry), sort_keys=True, indent=2)


def load_summary(text: str) -> Dict[str, object]:
    """Parse a :func:`to_json` artifact back into its summary dict."""
    return json.loads(text)


def summary_csv(telemetry: Telemetry) -> str:
    """Counters and gauges as ``kind,name,labels,value,peak`` rows."""
    out = io.StringIO()
    out.write("kind,name,labels,value,peak\n")
    registry = telemetry.registry
    for name, labels, counter in registry.counters():
        out.write(f"counter,{name},{format_labels(labels)},"
                  f"{counter.value},\n")
    for name, labels, gauge in registry.gauges():
        out.write(f"gauge,{name},{format_labels(labels)},"
                  f"{round_export(gauge.value)},{round_export(gauge.peak)}\n")
    for name, labels, histogram in registry.histograms():
        out.write(f"histogram,{name},{format_labels(labels)},"
                  f"{histogram.count},{round_export(histogram.max)}\n")
    out.write(f"meta,events.dropped,,{telemetry.dropped_events()},\n")
    return out.getvalue()


# ----------------------------------------------------------------------
# Time series (gauge samples -> CSV)
# ----------------------------------------------------------------------

def series_csv(registry: MetricsRegistry,
               names: Optional[Iterable[str]] = None) -> str:
    """Retained gauge series as ``name,labels,time,value`` rows.

    Args:
        names: restrict to these gauge names (e.g. ``["queue.bytes"]``
            for the per-hop queue-depth timeline); all gauges when
            omitted.
    """
    wanted = set(names) if names is not None else None
    out = io.StringIO()
    out.write("name,labels,time,value\n")
    for name, labels, gauge in registry.gauges():
        if wanted is not None and name not in wanted:
            continue
        rendered = format_labels(labels)
        for time, value in gauge.series:
            out.write(f"{name},{rendered},{round_export(time)},"
                      f"{round_export(value)}\n")
    return out.getvalue()


# ----------------------------------------------------------------------
# Derived timelines
# ----------------------------------------------------------------------

def rebuffer_timeline(events: Iterable[TraceEvent],
                      ) -> Dict[str, List[Tuple[str, float]]]:
    """Per-player playout/rebuffer timelines from the event stream.

    Returns:
        ``{player_label: [(event_type, sim_time), ...]}`` restricted to
        playout-start / rebuffer-start / rebuffer-stop events, in
        emission order.  The player label is the emitting buffer's
        ``player`` field (family name, plus run context when scoped).
    """
    interesting = (PLAYOUT_START, REBUFFER_START, REBUFFER_STOP)
    timelines: Dict[str, List[Tuple[str, float]]] = {}
    for event in events:
        if event.type not in interesting:
            continue
        fields = event.field_dict()
        player = str(fields.get("player", "?"))
        run = fields.get("run")
        key = f"{run}:{player}" if run is not None else player
        timelines.setdefault(key, []).append((event.type, event.time))
    return timelines
