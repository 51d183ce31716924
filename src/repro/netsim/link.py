"""Full-duplex point-to-point links with serialization and queueing.

Each direction of a link owns a drop-tail queue and a transmitter that
serializes one packet at a time at the link bandwidth, then delivers it
after the propagation delay (plus optional per-packet jitter).  This is
what turns a burst of IP fragments handed down in the same instant into
the closely-spaced wire "groups" of the paper's Figure 4.

A direction without jitter knows each packet's arrival the moment its
serialization starts.  It schedules the delivery right then, and a
transmitter-completion event only when another packet waits behind the
one on the wire: one event per packet on an idle link instead of two
(see :class:`_Direction`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro import units
from repro.netsim.packet import Packet
from repro.netsim.queues import DropTailQueue
from repro.telemetry.events import (
    LINK_DOWN,
    LINK_UP,
    PACKET_DELIVERED,
    PACKET_ENQUEUED,
    PACKET_LOSS,
)
from repro.telemetry.spans import STATUS_LOST

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.engine import Simulator
    from repro.netsim.node import Node


class LossModel:
    """Independent (Bernoulli) packet loss.

    The paper measured ~0% loss, so the default probability is zero;
    the congestion-study extension raises it.

    By default TCP segments are spared (``spare_tcp=True``): the
    simulator's minimal TCP carries only tiny control exchanges and has
    no retransmission, so sparing it stands in for the retransmissions
    a real TCP would perform — the media flows under study are UDP and
    take the full loss.  Set ``spare_tcp=False`` to drop blindly.
    """

    def __init__(self, probability: float = 0.0,
                 rng: Optional[random.Random] = None,
                 spare_tcp: bool = True) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"loss probability out of range: {probability}")
        self.probability = probability
        self.spare_tcp = spare_tcp
        self._rng = rng or random.Random(0)
        self.losses = 0

    def should_drop(self, packet: Optional[Packet] = None) -> bool:
        if self.probability <= 0.0:
            return False
        if (self.spare_tcp and packet is not None
                and packet.protocol.name == "TCP"):
            return False
        if self._rng.random() < self.probability:
            self.losses += 1
            return True
        return False


class GilbertElliottLossModel(LossModel):
    """Two-state (good/bad) burst-loss model.

    The classic Gilbert–Elliott chain: each packet first advances the
    state (good→bad with ``p_good_bad``, bad→good with ``p_bad_good``),
    then drops with the state's loss probability.  The stationary bad
    fraction is ``p_gb / (p_gb + p_bg)``; mean burst length is
    ``1 / p_bad_good`` packets.  Fault scenarios swap one of these onto
    a link mid-run to model the bursty loss episodes that steady
    Bernoulli loss cannot (see :mod:`repro.faults`).
    """

    def __init__(self, p_good_bad: float = 0.05, p_bad_good: float = 0.4,
                 loss_good: float = 0.0, loss_bad: float = 0.5,
                 rng: Optional[random.Random] = None,
                 spare_tcp: bool = True) -> None:
        super().__init__(0.0, rng=rng, spare_tcp=spare_tcp)
        for name, value in (("p_good_bad", p_good_bad),
                            ("p_bad_good", p_bad_good),
                            ("loss_good", loss_good),
                            ("loss_bad", loss_bad)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of range: {value}")
        self.p_good_bad = p_good_bad
        self.p_bad_good = p_bad_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.bad = False

    def should_drop(self, packet: Optional[Packet] = None) -> bool:
        rng = self._rng
        if self.bad:
            if rng.random() < self.p_bad_good:
                self.bad = False
        elif rng.random() < self.p_good_bad:
            self.bad = True
        if (self.spare_tcp and packet is not None
                and packet.protocol.name == "TCP"):
            return False
        probability = self.loss_bad if self.bad else self.loss_good
        if probability > 0.0 and rng.random() < probability:
            self.losses += 1
            return True
        return False


@dataclass
class DirectionStats:
    """Per-direction packet/byte counters."""

    packets_sent: int = 0
    packets_delivered: int = 0
    packets_lost: int = 0
    bytes_delivered: int = 0


def _can_drop(loss: LossModel) -> bool:
    """False only for a plain :class:`LossModel` that never drops."""
    return type(loss) is not LossModel or loss.probability > 0.0


def _no_jitter() -> float:
    """The jitter draw of a direction built without jitter."""
    return 0.0


def _check_bandwidth(bandwidth_bps: float) -> None:
    """Refuse a rate that is not positive and finite.

    NaN passes a plain ``<= 0`` test, and serialization divides by the
    rate with no check of its own (see :meth:`_Direction._transmit_next`).
    """
    if not (math.isfinite(bandwidth_bps) and bandwidth_bps > 0):
        raise ValueError(
            f"bandwidth must be positive and finite, got {bandwidth_bps}")


def _check_propagation_delay(delay: float) -> None:
    """Refuse a delay that is negative, NaN or infinite."""
    if not (math.isfinite(delay) and delay >= 0):
        raise ValueError(
            f"propagation delay must be nonnegative and finite, got {delay}")


class _Direction:
    """One direction of a link: queue + busy transmitter + delivery.

    The transmitter runs one of two event disciplines, fixed at
    construction:

    * **One event per packet** when the direction has no jitter
      callable, the simulator has no flow-level director, and no span
      recorder is attached.  Serialization start fixes the arrival
      (``finish + propagation``, clamped FIFO), so :meth:`_transmit_next`
      schedules :meth:`_deliver` at once, plus a completion event at
      ``_busy_until`` only when a packet waits behind the one on the
      wire.  ``_busy`` then means "a completion event is pending"; the
      wire itself is busy while ``now < _busy_until``.
    * **Two events per packet** otherwise: :meth:`_finish_transmit`
      when serialization ends, then :meth:`_deliver`.  Only this path
      keeps exact the draw order of a jitter stream that two
      directions share, the order of span ids, and the director's
      reads of ``_busy``/``_busy_until``.  The tests use it as the
      one-event path's reference.

    Both paths compute every time with the same float operations, so
    their deliveries, stats and queue counters are identical.
    """

    def __init__(self, sim: "Simulator", sink: "Node",
                 bandwidth_bps: float, propagation_delay: float,
                 queue: DropTailQueue, loss: LossModel,
                 jitter: Optional[Callable[[], float]],
                 label: str = "") -> None:
        self._sim = sim
        self._sink = sink
        self._bandwidth_bps = bandwidth_bps
        self._propagation_delay = propagation_delay
        self._queue = queue
        self._loss = loss
        self._lossy = _can_drop(loss)
        # The director draws from every direction's jitter, so a
        # direction without jitter still holds a callable.
        self._jitter = jitter if jitter is not None else _no_jitter
        self._busy = False
        self._up = True
        self._last_delivery = 0.0
        #: Packets polled off the queue but not yet handed to the sink
        #: (serializing or propagating).  The validator's conservation
        #: law counts these; a plain int, maintained unconditionally.
        self._in_flight = 0
        #: When the packet last put on the wire leaves the serializer
        #: (its _finish_transmit time).  The flow-level fast path chains
        #: its departure recursion through this while _busy, so a busy
        #: transmitter alone never forces a fallback.
        self._busy_until = 0.0
        #: Flow-level fast-path state (repro.netsim.flowlevel): virtual
        #: transmitter occupancy and last virtual entry time.  Both
        #: stay at their zeros unless a director commits a train here,
        #: so the check in send() costs one float compare on a
        #: fast-path-free run.
        self._reserved_until = 0.0
        self._fp_last_entry = 0.0
        self.stats = DirectionStats()
        # Telemetry handles are resolved once, here: the facade is
        # attached at Simulator construction, before any topology
        # exists, so caching is safe and keeps the per-packet cost to
        # one None check when disabled.
        self._telemetry = sim.telemetry
        self._spans = (self._telemetry.spans
                       if self._telemetry is not None else None)
        self._one_event = (jitter is None and sim.fast_path is None
                           and self._spans is None)
        #: One-event path only: the sequence number reserved for the
        #: completion of the packet on the wire, used if a packet comes
        #: to wait behind it; that packet's pending delivery, and the
        #: FIFO clamp from before it, which set_propagation_delay needs
        #: to re-time it.
        self._completion_sequence = 0
        self._wire_delivery: Optional[list] = None
        self._clamp_before_wire = 0.0
        self._label = label
        if self._telemetry is not None:
            queue.bind_telemetry(self._telemetry, link=label)
            registry = self._telemetry.registry
            for name, field in (
                    ("link.packets_sent", "packets_sent"),
                    ("link.packets_delivered", "packets_delivered"),
                    ("link.packets_lost", "packets_lost"),
                    ("link.bytes_delivered", "bytes_delivered")):
                registry.track(name, self.stats, field, link=label)

    def send(self, packet: Packet) -> None:
        self.stats.packets_sent += 1
        telemetry = self._telemetry
        if not self._up:
            self._drop_down(packet)
            return
        if self._lossy and self._loss.should_drop(packet):
            self.stats.packets_lost += 1
            if self._spans is not None and packet.span is not None:
                self._spans.packet_dropped(packet, self._sim.now,
                                           STATUS_LOST, self._label)
            if telemetry is not None:
                telemetry.emit(PACKET_LOSS, link=self._label,
                               packet_bytes=packet.ip_bytes)
            return
        if not self._queue.offer(packet):
            self.stats.packets_lost += 1
            return
        if telemetry is not None:
            telemetry.emit(PACKET_ENQUEUED, link=self._label,
                           packet_bytes=packet.ip_bytes,
                           queue_bytes=self._queue.bytes_queued)
        if not self._busy:
            if self._sim.now < self._busy_until:
                # One-event path: the wire is busy and nothing waited
                # until now, so no completion is due yet.  (The
                # two-event path never gets here: _busy stays set
                # until _finish_transmit runs at _busy_until.)
                self._busy = True
                self._sim.schedule_reserved(self._busy_until,
                                            self._completion_sequence,
                                            self._transmit_next)
            else:
                self._transmit_next()

    def _end_reservation(self) -> None:
        """Resume real transmission after a virtual train's occupancy."""
        self._busy = False
        self._transmit_next()

    def _drop_down(self, packet: Packet) -> None:
        """Account for a packet lost to an administratively-down link."""
        self.stats.packets_lost += 1
        if self._spans is not None and packet.span is not None:
            self._spans.packet_dropped(packet, self._sim.now,
                                       STATUS_LOST, self._label)
        if self._telemetry is not None:
            self._telemetry.emit(PACKET_LOSS, link=self._label,
                                 packet_bytes=packet.ip_bytes,
                                 reason="link_down")

    def set_up(self, up: bool) -> None:
        """Bring this direction up or down.

        Going down flushes the queue (those packets are lost, like
        frames sitting in an interface buffer when the carrier drops);
        the serializer finishes any packet already on the wire.  Coming
        up restarts the transmitter.
        """
        if up == self._up:
            return
        self._up = up
        self._sim.topology_epoch += 1
        if not up:
            while True:
                packet = self._queue.poll()
                if packet is None:
                    break
                self._drop_down(packet)
            return
        if not self._busy:
            self._transmit_next()

    def _transmit_next(self) -> None:
        if not self._up:
            self._busy = False
            return
        if self._reserved_until > self._sim.now:
            # A flow-level train virtually occupies the transmitter
            # until _reserved_until; a real packet racing past it would
            # reorder the wire.  Hold the queue until the occupancy
            # ends.  (One float compare, always false without a
            # director — _reserved_until never leaves 0.0 then.)
            if self._queue._queue:
                # A real packet is now waiting out a virtual train —
                # the packet-level schedule might have interleaved it
                # mid-train, so this run is no longer provably exact.
                # The director surfaces the count; the equivalence
                # harness demands byte-identity only when it is zero.
                director = self._sim.fast_path
                if director is not None:
                    director.reals_parked += 1
            self._busy = True
            self._busy_until = self._reserved_until
            self._sim.schedule_at(self._reserved_until,
                                  self._end_reservation)
            return
        packet = self._queue.poll()
        if packet is None:
            self._busy = False
            return
        sim = self._sim
        self._in_flight += 1
        if self._spans is not None and packet.span is not None:
            self._spans.tx_started(packet, sim.now, self._label)
        # units.transmission_delay's float operations, inline: the
        # link checked the bandwidth when it was set.
        tx_delay = packet.wire_bytes * 8.0 / self._bandwidth_bps
        finish = sim.now + tx_delay
        self._busy_until = finish
        if not self._one_event:
            self._busy = True
            sim.schedule_in(tx_delay, self._finish_transmit, packet)
            return
        # The completion takes the place _finish_transmit's event would
        # hold among same-time events, whenever it turns out to be due.
        # Simulator.reserve_sequence inline: it runs on every hop.
        completion = sim._sequence
        sim._sequence = completion + 1
        # _finish_transmit's arithmetic without the jitter term, done
        # now instead of when serialization ends.
        arrival = finish + self._propagation_delay
        clamp = self._last_delivery
        if arrival < clamp:
            arrival = clamp
        self._clamp_before_wire = clamp
        self._last_delivery = arrival
        self._wire_delivery = sim.schedule_at(arrival, self._deliver, packet)
        if self._queue._queue:
            self._busy = True
            sim.schedule_reserved(finish, completion, self._transmit_next)
        else:
            self._busy = False
            self._completion_sequence = completion

    def set_propagation_delay(self, delay: float) -> None:
        """Change the propagation delay of packets not yet propagating.

        The two-event path reads the delay when serialization ends, so
        the packet still serializing takes the new one.  The one-event
        path fixed that packet's arrival when serialization started, so
        it re-times the packet here.  A change at exactly
        ``_busy_until`` counts as made before the serializer finishes,
        which is the two-event order for a change scheduled before the
        traffic (as :meth:`repro.faults.FaultController.arm` does).
        """
        self._propagation_delay = delay
        wire = self._wire_delivery
        # The engine clears an entry's callback (wire[2]) when it fires.
        if (wire is None or wire[2] is None
                or self._sim.now > self._busy_until):
            return
        arrival = self._busy_until + delay
        if arrival < self._clamp_before_wire:
            arrival = self._clamp_before_wire
        self._sim.cancel(wire)
        self._last_delivery = arrival
        self._wire_delivery = self._sim.schedule_at(arrival, self._deliver,
                                                    *wire[3])

    def _finish_transmit(self, packet: Packet) -> None:
        arrival = (self._sim.now + self._propagation_delay
                   + max(0.0, self._jitter()))
        # A wire is FIFO: jitter models variable queueing delay, which
        # can stretch gaps but never reorder packets within a direction.
        arrival = max(arrival, self._last_delivery)
        self._last_delivery = arrival
        if self._spans is not None and packet.span is not None:
            self._spans.tx_finished(packet, self._sim.now)
            self._spans.propagated(packet, self._sim.now, arrival,
                                   self._label)
        self._sim.schedule_at(arrival, self._deliver, packet)
        self._transmit_next()

    def _deliver(self, packet: Packet) -> None:
        self._in_flight -= 1
        self.stats.packets_delivered += 1
        self.stats.bytes_delivered += packet.ip_bytes
        if self._telemetry is not None:
            self._telemetry.emit(PACKET_DELIVERED, link=self._label,
                                 packet_bytes=packet.ip_bytes)
        sink = self._sink
        # The sink's rx taps, then its hook, with no node frame between.
        if sink.taps:
            sink._notify_taps("rx", packet)
        sink.handle_packet(packet)


class Link:
    """A full-duplex link between two nodes.

    Args:
        sim: owning simulator.
        a, b: endpoint nodes; the link registers itself with both.
        bandwidth_bps: serialization rate, bits/second, per direction;
            positive and finite.
        propagation_delay: one-way latency in seconds; nonnegative and
            finite.
        queue_capacity_bytes: drop-tail queue size per direction.
        loss: optional shared loss model (defaults to lossless).
        jitter: optional zero-arg callable returning extra per-packet
            delay in seconds (e.g. drawn from an RNG stream); negative
            values are clamped to zero.  ``None`` (the default) means
            no jitter and lets each direction schedule one event per
            packet on an idle wire instead of two (see
            :class:`_Direction`); a callable, even one that always
            returns 0.0, keeps the two-event transmitter.
    """

    def __init__(self, sim: "Simulator", a: "Node", b: "Node",
                 bandwidth_bps: float = units.mbps(10),
                 propagation_delay: float = 0.001,
                 queue_capacity_bytes: int = 256 * 1024,
                 loss: Optional[LossModel] = None,
                 jitter: Optional[Callable[[], float]] = None,
                 queue_factory: Optional[Callable[[], DropTailQueue]] = None,
                 ) -> None:
        _check_bandwidth(bandwidth_bps)
        _check_propagation_delay(propagation_delay)
        self.sim = sim
        self.a = a
        self.b = b
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        loss = loss or LossModel(0.0)
        if queue_factory is None:
            queue_factory = lambda: DropTailQueue(queue_capacity_bytes)  # noqa: E731
        self._forward = _Direction(sim, b, bandwidth_bps, propagation_delay,
                                   queue_factory(), loss, jitter,
                                   label=f"{a.name}->{b.name}")
        self._reverse = _Direction(sim, a, bandwidth_bps, propagation_delay,
                                   queue_factory(), loss, jitter,
                                   label=f"{b.name}->{a.name}")
        a.attach(self, b)
        b.attach(self, a)
        if sim.validator is not None:
            sim.validator.register_link(self)

    # ------------------------------------------------------------------
    # Fault injection (repro.faults drives these mid-run)
    # ------------------------------------------------------------------
    @property
    def up(self) -> bool:
        """Whether the link is administratively up (both directions)."""
        return self._forward._up and self._reverse._up

    def set_up(self, up: bool) -> None:
        """Take the whole link down or bring it back up.

        Both directions change together (a cut cable, a bounced
        interface).  Going down flushes the queues and drops everything
        sent until the link comes back; packets already serialized onto
        the wire still arrive, as on a real cut.  Emits ``link_down`` /
        ``link_up`` trace events when telemetry is attached.
        """
        if up == self.up:
            return
        self._forward.set_up(up)
        self._reverse.set_up(up)
        if self.sim.telemetry is not None:
            self.sim.telemetry.emit(LINK_UP if up else LINK_DOWN,
                                    link=self.label)
        for node in (self.a, self.b):
            on_change = getattr(node, "on_link_state", None)
            if on_change is not None:
                on_change(self, up)

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Degrade (or restore) the serialization rate mid-run.

        Applies to packets whose transmission starts after the call;
        the packet currently on the wire finishes at the old rate.
        """
        _check_bandwidth(bandwidth_bps)
        self.bandwidth_bps = bandwidth_bps
        self._forward._bandwidth_bps = bandwidth_bps
        self._reverse._bandwidth_bps = bandwidth_bps
        self.sim.topology_epoch += 1

    def set_propagation_delay(self, delay: float) -> None:
        """Change the one-way latency mid-run (path degradation).

        Applies to every packet that has not finished serializing,
        including the one on the wire.
        """
        _check_propagation_delay(delay)
        self.propagation_delay = delay
        self._forward.set_propagation_delay(delay)
        self._reverse.set_propagation_delay(delay)
        self.sim.topology_epoch += 1

    def set_loss(self, loss: LossModel) -> None:
        """Swap the loss model (e.g. toggle Gilbert–Elliott bursts)."""
        for direction in (self._forward, self._reverse):
            direction._loss = loss
            direction._lossy = _can_drop(loss)
        self.sim.topology_epoch += 1

    @property
    def label(self) -> str:
        return f"{self.a.name}<->{self.b.name}"

    def queue_stats(self, sender: "Node"):
        """The queue counters for the direction whose transmitter is
        ``sender`` (drops here are congestion losses)."""
        if sender is self.a:
            return self._forward._queue.stats
        if sender is self.b:
            return self._reverse._queue.stats
        raise ValueError(f"{sender!r} is not an endpoint of this link")

    def send_from(self, sender: "Node", packet: Packet) -> None:
        """Transmit a packet from one endpoint toward the other."""
        if sender is self.a:
            self._forward.send(packet)
        elif sender is self.b:
            self._reverse.send(packet)
        else:
            raise ValueError(f"{sender!r} is not an endpoint of this link")

    def direction_stats(self, sender: "Node") -> DirectionStats:
        """Counters for the direction whose transmitter is ``sender``."""
        if sender is self.a:
            return self._forward.stats
        if sender is self.b:
            return self._reverse.stats
        raise ValueError(f"{sender!r} is not an endpoint of this link")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Link {self.a.name}<->{self.b.name} "
                f"{self.bandwidth_bps / 1e6:.1f}Mbps "
                f"{self.propagation_delay * 1000:.2f}ms>")
