"""Synthetic flows: generation, trace conversion, and replay.

Ties the Section IV models to the rest of the library:

* :func:`generate_flow` produces a :class:`SyntheticFlow` for a family
  and encoding rate;
* :meth:`SyntheticFlow.to_trace` converts it into a capture-compatible
  :class:`~repro.capture.trace.Trace` for export (pcap, CSV) and for
  any trace analysis; the Section IV round trip fits the schedule
  itself (:func:`repro.core.fitting.fit_schedule`), to the values
  this trace gives;
* :class:`FlowReplayer` injects the flow into a live simulation as an
  unresponsive UDP source (background traffic for congestion studies).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from repro import units
from repro.capture.trace import PacketRecord, Trace
from repro.errors import MediaError
from repro.media.clip import PlayerFamily
from repro.netsim.addressing import IPAddress
from repro.netsim.engine import Simulator
from repro.netsim.headers import PayloadMeta
from repro.netsim.udp import UdpSocket
from repro.core.models import flow_model_for

_DEFAULT_SRC = IPAddress.parse("64.14.118.10")
_DEFAULT_DST = IPAddress.parse("130.215.0.10")


@dataclass
class SyntheticFlow:
    """A generated datagram schedule plus its provenance.

    ``payloads`` is what a Section IV model decides: (send time, UDP
    payload bytes) per datagram.  Its packets are what the IP layer
    makes of each datagram (:func:`repro.units.fragment_payloads`).
    """

    family: PlayerFamily
    encoded_kbps: float
    duration: float
    payloads: List[Tuple[float, int]] = field(default_factory=list)

    def datagrams(self) -> Iterator[Tuple[float, List[int]]]:
        """(send time, IP payload bytes of each packet) per datagram."""
        for time, payload in self.payloads:
            yield time, units.fragment_payloads(
                payload + units.UDP_HEADER_BYTES)

    @property
    def packet_count(self) -> int:
        return sum(len(sizes) for _, sizes in self.datagrams())

    @property
    def total_wire_bytes(self) -> int:
        return sum(units.wire_frame_bytes(units.IPV4_HEADER_BYTES + size)
                   for _, sizes in self.datagrams() for size in sizes)

    @property
    def streaming_duration(self) -> float:
        """Wall time the flow occupies (shorter than the clip for
        RealPlayer flows, which front-load the burst)."""
        if not self.payloads:
            return 0.0
        return self.payloads[-1][0] - self.payloads[0][0]

    def group_payloads(self) -> List[Tuple[float, int]]:
        """(time, UDP payload bytes) per datagram group — the schedule
        a replayer hands to sendto()."""
        return self.payloads

    def to_trace(self, src: IPAddress = _DEFAULT_SRC,
                 dst: IPAddress = _DEFAULT_DST, src_port: int = 5005,
                 dst_port: int = 7000) -> Trace:
        """Render the flow as a capture trace for re-analysis.

        Every packet of a datagram carries its send time; only the
        first shows the UDP ports, as on the wire.
        """
        records = []
        for datagram, (time, sizes) in enumerate(self.datagrams(), start=1):
            last = len(sizes) - 1
            offset = 0
            for index, size in enumerate(sizes):
                ip_bytes = units.IPV4_HEADER_BYTES + size
                first = index == 0
                records.append(PacketRecord(
                    number=len(records) + 1, time=time, direction="rx",
                    src=src, dst=dst, protocol="UDP",
                    ip_bytes=ip_bytes,
                    wire_bytes=units.wire_frame_bytes(ip_bytes),
                    ttl=114, identification=datagram,
                    is_fragment=last > 0,
                    is_trailing_fragment=not first,
                    more_fragments=index < last,
                    fragment_offset=offset // 8,
                    src_port=src_port if first else None,
                    dst_port=dst_port if first else None,
                    payload_kind="media",
                    datagram_id=datagram))
                offset += size
        return Trace(records,
                     description=(f"synthetic {self.family.value} "
                                  f"{self.encoded_kbps:.0f}Kbps"))


def generate_flow(family: PlayerFamily, encoded_kbps: float,
                  duration: float, seed: int = 0) -> SyntheticFlow:
    """Generate a Section IV flow.

    Raises:
        MediaError: for nonpositive rate or duration, or a byte budget
            that overflows to infinity.
    """
    if duration <= 0:
        raise MediaError(f"duration must be positive: {duration}")
    if not math.isfinite(units.kbps(encoded_kbps) * duration):
        raise MediaError(f"a {duration:g} s flow at {encoded_kbps:g} Kbps "
                         f"is too long to generate")
    model = flow_model_for(family, encoded_kbps, random.Random(seed))
    return SyntheticFlow(family=family, encoded_kbps=encoded_kbps,
                         duration=duration,
                         payloads=model.group_payloads(duration))


class FlowReplayer:
    """Inject a synthetic flow into a live simulation over UDP.

    Datagram-level replay: each group's payload is handed to the
    socket whole, so MediaPlayer ADUs re-fragment in the simulated IP
    layer exactly as the original server's would.
    """

    def __init__(self, sim: Simulator, socket: UdpSocket, dst: IPAddress,
                 dst_port: int, flow: SyntheticFlow) -> None:
        self.sim = sim
        self.socket = socket
        self.dst = dst
        self.dst_port = dst_port
        self.flow = flow
        self.datagrams_sent = 0
        self._started = False

    def start(self) -> "FlowReplayer":
        if self._started:
            raise MediaError("replayer already started")
        self._started = True
        origin = self.sim.now
        for sequence, (time, payload) in enumerate(
                self.flow.group_payloads()):
            self.sim.schedule_at(origin + time, self._send, sequence,
                                 payload)
        return self

    def _send(self, sequence: int, payload: int) -> None:
        meta = PayloadMeta(kind="media", adu_sequence=sequence)
        self.socket.send(self.dst, self.dst_port, payload, payload=meta)
        self.datagrams_sent += 1
