"""Span-forest exports: Chrome trace-event JSON and canonical JSONL.

Both formats follow the subsystem's export invariant: everything is
derived from simulated time and recorder-assigned ids, keys are sorted,
and floats are rounded to fixed precision, so two same-seed runs
produce byte-identical artifacts.

The Chrome trace-event file loads directly in Perfetto (or
``chrome://tracing``): each ``(run, family)`` pair becomes a process,
every ADU gets a track for its root/reassembly/buffer spans, and every
packet gets a track on which its queue → tx → prop stages tile — the
per-hop waterfall, zoomable.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.telemetry.events import round_export
from repro.telemetry.spans import (
    SPAN_ADU,
    SPAN_BUFFER,
    SPAN_PACKET,
    SPAN_REASSEMBLY,
    Span,
    SpanRecorder,
)

def _micros(seconds: float) -> float:
    """Simulated seconds -> trace-event microseconds, normalized."""
    return round(seconds * 1e6, 3)


def _span_name(span: Span) -> str:
    if span.kind == SPAN_ADU:
        return f"adu#{span.attrs.get('seq', '?')}"
    if span.kind == SPAN_PACKET:
        offset = span.attrs.get("offset", 0)
        return f"frag@{offset}" if offset else "packet"
    link = span.attrs.get("link")
    return f"{span.kind} {link}" if link is not None else span.kind


def _process_key(span: Span) -> str:
    family = str(span.attrs.get("family", "?"))
    run = span.attrs.get("run")
    return f"{run}:{family}" if run is not None else family


def chrome_trace(recorder: SpanRecorder) -> str:
    """The span forest as Chrome trace-event JSON (Perfetto-loadable).

    Only closed spans are exported — an open span has no duration to
    draw, and skipping them keeps the artifact deterministic even when
    a run is cut short mid-flight.
    """
    # Processes are (run, family) pairs, discovered from roots in
    # creation order so pids are stable under a fixed seed.
    pids: Dict[int, int] = {}        # trace id -> pid
    process_names: Dict[int, str] = {}
    next_pid = 1
    for span in recorder.spans:
        if span.kind != SPAN_ADU:
            continue
        key = _process_key(span)
        pid = next((p for p, name in process_names.items() if name == key),
                   None)
        if pid is None:
            pid = next_pid
            next_pid += 1
            process_names[pid] = key
        pids[span.trace] = pid

    events: List[Dict[str, object]] = []
    for pid in sorted(process_names):
        events.append({"ph": "M", "pid": pid, "tid": 0,
                       "name": "process_name",
                       "args": {"name": process_names[pid]}})

    # Track layout: the ADU's own lifecycle (root, reassembly, buffer)
    # shares the root's track; each packet's stages tile on the packet
    # span's track, nesting under the packet span itself.
    for span in recorder.spans:
        if not span.closed:
            continue
        pid = pids.get(span.trace)
        if pid is None:
            continue
        if span.kind in (SPAN_ADU, SPAN_REASSEMBLY, SPAN_BUFFER):
            tid = span.trace
        elif span.kind == SPAN_PACKET:
            tid = span.id
        else:  # queue / tx / prop ride their packet's track
            tid = span.parent
        args = {key: span.attrs[key] for key in sorted(span.attrs)}
        if span.status is not None:
            args["status"] = span.status
        events.append({"ph": "X", "pid": pid, "tid": tid,
                       "ts": _micros(span.start),
                       "dur": _micros(span.duration),
                       "cat": span.kind, "name": _span_name(span),
                       "args": args})
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"},
                      sort_keys=True, separators=(",", ":"))


def span_record(span: Span) -> Dict[str, object]:
    """One span as the flat dict the JSONL export encodes."""
    record: Dict[str, object] = {
        "id": span.id, "trace": span.trace, "kind": span.kind,
        "start": round_export(span.start),
    }
    if span.parent is not None:
        record["parent"] = span.parent
    if span.end is not None:
        record["end"] = round_export(span.end)
    if span.status is not None:
        record["status"] = span.status
    for key in sorted(span.attrs):
        record[f"attr.{key}"] = span.attrs[key]
    return record


def spans_jsonl(recorder: SpanRecorder) -> str:
    """One canonical JSON object per span, in creation order."""
    lines = [json.dumps(span_record(span), sort_keys=True,
                        separators=(",", ":"))
             for span in recorder.spans]
    return "\n".join(lines) + ("\n" if lines else "")


def write_chrome_trace(recorder: SpanRecorder, path: str) -> None:
    with open(path, "w") as stream:
        stream.write(chrome_trace(recorder))


def write_spans_jsonl(recorder: SpanRecorder, path: str) -> None:
    with open(path, "w") as stream:
        stream.write(spans_jsonl(recorder))
