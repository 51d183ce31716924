"""Trace-event sinks: where the bus delivers its events.

Three flavors cover the subsystem's contract:

* :class:`MemorySink` — the bounded ring buffer backing interactive
  queries (`repro telemetry` reads rebuffer timelines out of it);
* :class:`JsonlSink` — one JSON object per line, sorted keys, fixed
  float formatting, so identical seeds produce byte-identical files;
* :class:`NullSink` — reports ``active = False``, which tells the bus
  to skip event construction entirely (the zero-allocation guarantee
  the disabled path relies on).
"""

from __future__ import annotations

import io
import json
import sys
from collections import deque
from typing import Deque, Optional, Union

from repro.telemetry.events import TraceEvent

#: Default ring capacity: enough for a full-length pair run's media
#: events without letting a pathological run grow without bound.
DEFAULT_RING_CAPACITY = 262144


class NullSink:
    """Discards everything — and tells the bus not to bother emitting."""

    active = False

    def write(self, event: TraceEvent) -> None:  # pragma: no cover - bus
        pass                                     # never calls an inactive sink


class MemorySink:
    """Bounded in-memory ring of the most recent events.

    ``capacity=None`` makes the ring unbounded — the parallel study
    executor uses that in worker processes, where dropping an event
    would silently diverge the merged stream from a sequential run's.
    A capacity above ``sys.maxsize`` is clamped to it: no deque holds
    more.
    """

    active = True

    def __init__(self,
                 capacity: Optional[int] = DEFAULT_RING_CAPACITY) -> None:
        self.events: Deque[TraceEvent] = deque(
            maxlen=None if capacity is None else min(capacity, sys.maxsize))
        self.dropped = 0

    def write(self, event: TraceEvent) -> None:
        if len(self.events) == self.events.maxlen:
            self.dropped += 1
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)


def encode_event(event: TraceEvent) -> str:
    """The canonical JSON-lines encoding (sorted keys, no whitespace)."""
    return json.dumps(event.as_record(), sort_keys=True,
                      separators=(",", ":"))


class JsonlSink:
    """Writes one canonical JSON object per event line.

    Args:
        target: a path to open (closed by :meth:`close`) or an existing
            text stream (left open; the caller owns it).
    """

    active = True

    def __init__(self, target: Union[str, io.TextIOBase]) -> None:
        if isinstance(target, str):
            self._stream = open(target, "w")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self.lines_written = 0

    def write(self, event: TraceEvent) -> None:
        self._stream.write(encode_event(event))
        self._stream.write("\n")
        self.lines_written += 1

    def close(self) -> None:
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()
