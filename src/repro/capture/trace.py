"""Trace containers: what a capture session produces.

A :class:`PacketRecord` is one row of an Ethereal capture — timestamp,
addresses, protocol, sizes, and the IP fragmentation fields the paper's
analysis keys on.  A :class:`Trace` is an ordered collection of records
with the slicing/filtering operations the analysis package builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import CaptureError
from repro.netsim.addressing import IPAddress
from repro.netsim.headers import IcmpHeader, TcpHeader, UdpHeader
from repro.netsim.packet import Packet


@dataclass
class PacketRecord:
    """One captured packet, flattened for analysis.

    ``direction`` is ``"rx"`` (arriving at the capture host) or
    ``"tx"`` (sent by it); the paper's client-side captures are almost
    entirely ``rx`` media traffic.

    A plain dataclass, like ``Datagram`` and ``PayloadMeta``: a frozen
    one's ``__init__`` sets each field through ``object.__setattr__``,
    about eight times the cost, and every capture and synthetic trace
    builds thousands of rows.  Nothing mutates a row;
    :func:`dataclasses.replace` makes a new one.  A row pickles as its
    field values and is rebuilt through ``__init__``, the only way to
    build one: a row given a fresh ``__dict__`` loses the shared-key
    instance layout and takes three times the memory.
    """

    number: int
    time: float
    direction: str
    src: IPAddress
    dst: IPAddress
    protocol: str
    ip_bytes: int
    wire_bytes: int
    ttl: int
    identification: int
    is_fragment: bool
    is_trailing_fragment: bool
    more_fragments: bool
    fragment_offset: int
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    payload_kind: str = "data"
    adu_sequence: Optional[int] = None
    datagram_id: int = 0
    uid: int = 0
    #: Span provenance, carried when the capture ran with a
    #: SpanRecorder installed (None otherwise, and on pcap re-imports,
    #: where the ids cannot survive the wire format).
    span_id: Optional[int] = None
    span_trace: Optional[int] = None

    @classmethod
    def from_packet(cls, number: int, time: float, direction: str,
                    packet: Packet) -> "PacketRecord":
        """Flatten a live packet into a capture row."""
        src_port = dst_port = None
        transport = packet.transport
        if isinstance(transport, (UdpHeader, TcpHeader)):
            src_port = transport.src_port
            dst_port = transport.dst_port
        ip = packet.ip
        payload = packet.payload
        span = packet.span
        # Positional, in field order (pinned by tests/test_trace.py):
        # matching 22 keywords costs about three times the row.
        return cls(
            number, time, direction, ip.src, ip.dst, ip.protocol.name,
            packet.ip_bytes, packet.wire_bytes, packet.ttl,
            ip.identification, packet.is_fragment,
            packet.is_trailing_fragment, ip.more_fragments,
            ip.fragment_offset, src_port, dst_port, payload.kind,
            payload.adu_sequence, packet.datagram_id, packet.uid,
            span.id if span is not None else None,
            span.trace if span is not None else None)

    def __reduce__(self):
        return PacketRecord, _field_values(self)


#: A row's field values in field order: its pickled form.
_field_values = attrgetter(*(spec.name for spec in fields(PacketRecord)))


class Trace:
    """An ordered sequence of packet records plus capture metadata."""

    def __init__(self, records: Optional[Iterable[PacketRecord]] = None,
                 description: str = "") -> None:
        self.records: List[PacketRecord] = list(records or [])
        self.description = description

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[PacketRecord]:
        return iter(self.records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self.records[index], self.description)
        return self.records[index]

    def append(self, record: PacketRecord) -> None:
        self.records.append(record)

    def rebase_spans(self, offset: int) -> None:
        """Shift every record's span provenance ids by ``offset``.

        The parallel study executor records each pair run in its own
        process, where span ids start at 1; after the parent recorder
        adopts a worker's forest (rebasing the ids past its high-water
        mark), the run's capture must follow so ``span_id``/
        ``span_trace`` still join against the merged forest — and so a
        parallel study's traces match a sequential study's exactly.
        """
        if offset == 0:
            return
        self.records = [
            replace(record,
                    span_id=record.span_id + offset,
                    span_trace=record.span_trace + offset)
            if record.span_id is not None else record
            for record in self.records
        ]

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def filter(self, predicate: Callable[[PacketRecord], bool]) -> "Trace":
        """A new trace containing the records matching ``predicate``."""
        return Trace((r for r in self.records if predicate(r)),
                     self.description)

    def display_filter(self, expression: str) -> "Trace":
        """Filter with the Ethereal-like expression language.

        Example::

            trace.display_filter("udp && ip.frag && frame.len == 1514")
        """
        from repro.capture.filters import compile_filter

        return self.filter(compile_filter(expression))

    def between(self, start: float, end: float) -> "Trace":
        """Records with ``start <= time < end``."""
        return self.filter(lambda r: start <= r.time < end)

    def received(self) -> "Trace":
        """Only packets arriving at the capture host."""
        return self.filter(lambda r: r.direction == "rx")

    def udp(self) -> "Trace":
        return self.filter(lambda r: r.protocol == "UDP")

    def flow(self, src: IPAddress, dst_port: Optional[int] = None) -> "Trace":
        """Records from ``src`` (optionally to a destination port).

        Fragments carry no ports, so the port condition matches any
        fragment of a datagram from ``src`` as well — the same join a
        human performs in Ethereal when following a media flow.
        """
        def predicate(record: PacketRecord) -> bool:
            if record.src != src:
                return False
            if dst_port is None:
                return True
            if record.dst_port == dst_port:
                return True
            return record.is_trailing_fragment
        return self.filter(predicate)

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Seconds from first to last record (0 for tiny traces)."""
        if len(self.records) < 2:
            return 0.0
        return self.records[-1].time - self.records[0].time

    @property
    def total_wire_bytes(self) -> int:
        return sum(r.wire_bytes for r in self.records)

    @property
    def total_ip_bytes(self) -> int:
        return sum(r.ip_bytes for r in self.records)

    def times(self) -> List[float]:
        """Arrival timestamps, in capture order."""
        return [r.time for r in self.records]

    def sizes(self, wire: bool = True) -> List[int]:
        """Packet sizes; wire frames by default (Ethereal's frame.len)."""
        if wire:
            return [r.wire_bytes for r in self.records]
        return [r.ip_bytes for r in self.records]

    def average_rate_bps(self) -> float:
        """Mean delivery rate over the trace, in bits/second.

        Raises:
            CaptureError: for traces too short to define a rate.
        """
        if self.duration <= 0:
            raise CaptureError("trace too short to compute a rate")
        return self.total_wire_bytes * 8.0 / self.duration

    def conversations(self) -> List[Tuple[IPAddress, IPAddress, int]]:
        """Distinct (src, dst, packet count) tuples, like Ethereal's
        conversations window."""
        counts: dict = {}
        for record in self.records:
            key = (record.src, record.dst)
            counts[key] = counts.get(key, 0) + 1
        return [(src, dst, count)
                for (src, dst), count in sorted(
                    counts.items(), key=lambda item: -item[1])]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Trace {len(self.records)} packets, "
                f"{self.duration:.1f}s, {self.description!r}>")
