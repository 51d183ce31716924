"""Router/link queues.

The paper ran under uncongested conditions (~0% loss), but queues still
shape packet trains: back-to-back fragments of a Windows Media ADU
serialize one after another, which is what makes Figure 4's "groups"
visible.  The default is a byte-capacity drop-tail FIFO; RED is
included for the congestion-study extension (the paper's future work
cites [FKSS01]-style queue management).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Optional

from repro.netsim.packet import Packet
from repro.telemetry.events import QUEUE_DROP
from repro.telemetry.spans import STATUS_DROPPED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.core import Telemetry


@dataclass
class QueueStats:
    """Counters exposed by every queue implementation."""

    enqueued: int = 0
    dropped: int = 0
    dequeued: int = 0
    peak_bytes: int = 0


class DropTailQueue:
    """FIFO with a byte-capacity limit; arrivals beyond it are dropped."""

    def __init__(self, capacity_bytes: int = 64 * 1024) -> None:
        if capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._queue: Deque[Packet] = deque()
        self._bytes = 0
        self.stats = QueueStats()
        self._telemetry: Optional["Telemetry"] = None
        self._event_fields: dict = {}
        self._depth_gauge = None
        self._spans = None
        self._span_link = ""

    def bind_telemetry(self, telemetry: Optional["Telemetry"],
                       **labels: object) -> None:
        """Attach telemetry; the owning link calls this with its
        per-direction labels so depth/drop metrics stay per-hop."""
        self._telemetry = telemetry
        if telemetry is None:
            return
        self._event_fields = dict(labels)
        self._depth_gauge = telemetry.gauge("queue.bytes", **labels)
        telemetry.registry.track("queue.drops", self.stats, "dropped",
                                 **labels)
        self._spans = telemetry.spans
        self._span_link = str(labels.get("link", ""))

    def _note_drop(self, packet: Packet) -> None:
        self.stats.dropped += 1
        telemetry = self._telemetry
        if self._spans is not None and packet.span is not None:
            self._spans.packet_dropped(packet, telemetry.now(),
                                       STATUS_DROPPED, self._span_link)
        if telemetry is not None:
            telemetry.emit(QUEUE_DROP, queue_bytes=self._bytes,
                           packet_bytes=packet.ip_bytes,
                           **self._event_fields)

    def offer(self, packet: Packet) -> bool:
        """Enqueue the packet if it fits; return False if dropped."""
        queued = self._bytes + packet.ip_bytes
        if queued > self.capacity_bytes:
            self._note_drop(packet)
            return False
        self._queue.append(packet)
        self._bytes = queued
        stats = self.stats
        stats.enqueued += 1
        if queued > stats.peak_bytes:
            stats.peak_bytes = queued
        if self._telemetry is not None:
            self._depth_gauge.set(self._bytes, self._telemetry.now())
            if self._spans is not None and packet.span is not None:
                self._spans.queue_entered(packet, self._telemetry.now(),
                                          self._span_link)
        return True

    def poll(self) -> Optional[Packet]:
        """Dequeue the head packet, or None when empty."""
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.ip_bytes
        self.stats.dequeued += 1
        if self._telemetry is not None:
            self._depth_gauge.set(self._bytes, self._telemetry.now())
            if self._spans is not None and packet.span is not None:
                self._spans.queue_left(packet, self._telemetry.now())
        return packet

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def bytes_queued(self) -> int:
        return self._bytes


class RedQueue(DropTailQueue):
    """Random Early Detection, for the congestion-study extension.

    Drops probabilistically once average occupancy exceeds ``min_threshold``
    (fractions of capacity), and always above ``max_threshold``.  Uses an
    exponentially-weighted moving average of queue bytes like the classic
    Floyd/Jacobson design, but simplified to per-arrival updates.
    """

    def __init__(self, capacity_bytes: int = 64 * 1024,
                 min_threshold: float = 0.25, max_threshold: float = 0.75,
                 max_drop_probability: float = 0.1, weight: float = 0.02,
                 rng=None) -> None:
        super().__init__(capacity_bytes)
        if not 0 <= min_threshold < max_threshold <= 1:
            raise ValueError("need 0 <= min_threshold < max_threshold <= 1")
        self.min_threshold = min_threshold
        self.max_threshold = max_threshold
        self.max_drop_probability = max_drop_probability
        self.weight = weight
        self._avg_bytes = 0.0
        self._rng = rng

    def offer(self, packet: Packet) -> bool:
        self._avg_bytes = ((1 - self.weight) * self._avg_bytes
                           + self.weight * self._bytes)
        occupancy = self._avg_bytes / self.capacity_bytes
        if occupancy >= self.max_threshold:
            self._note_drop(packet)
            return False
        if occupancy > self.min_threshold:
            span = self.max_threshold - self.min_threshold
            probability = (self.max_drop_probability
                           * (occupancy - self.min_threshold) / span)
            draw = self._rng.random() if self._rng is not None else 0.0
            if draw < probability:
                self._note_drop(packet)
                return False
        return super().offer(packet)
