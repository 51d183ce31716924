"""Link serialization, queueing, loss, and jitter tests."""

import collections
import dataclasses
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import units
from repro.netsim.addressing import IPAddress
from repro.netsim.engine import Simulator
from repro.netsim.flowlevel import FlowLevelConfig
from repro.netsim.headers import IPv4Header, IpProtocol
from repro.netsim.link import Link, LossModel
from repro.netsim.node import Node, Router
from repro.netsim.packet import Packet
from repro.netsim.queues import DropTailQueue
from repro.netsim.topology import build_path_topology
from repro.telemetry import Telemetry
from repro.telemetry.spans import SpanRecorder


class SinkNode(Node):
    """Records every delivered packet with its arrival time."""

    def __init__(self, sim, name):
        super().__init__(sim, name, IPAddress.parse("10.0.0.1"))
        self.received = []

    def handle_packet(self, packet):
        self.received.append((self.sim.now, packet))


def make_packet(size=1500):
    header = IPv4Header(src=IPAddress.parse("10.0.0.2"),
                        dst=IPAddress.parse("10.0.0.1"),
                        protocol=IpProtocol.UDP, total_length=size)
    return Packet(ip=header)


def build(sim, **link_kwargs):
    a = SinkNode(sim, "a")
    b = SinkNode(sim, "b")
    link = Link(sim, a, b, **link_kwargs)
    return a, b, link


class TestDelivery:
    def test_single_packet_delay_is_tx_plus_propagation(self):
        sim = Simulator()
        a, b, link = build(sim, bandwidth_bps=units.mbps(10),
                           propagation_delay=0.010)
        packet = make_packet(1500)  # 1514 wire bytes
        link.send_from(a, packet)
        sim.run()
        expected = 1514 * 8 / 10e6 + 0.010
        assert b.received[0][0] == pytest.approx(expected)

    def test_back_to_back_packets_serialize(self):
        sim = Simulator()
        a, b, link = build(sim, bandwidth_bps=units.mbps(10),
                           propagation_delay=0.0)
        for _ in range(3):
            link.send_from(a, make_packet(1500))
        sim.run()
        times = [t for t, _ in b.received]
        gap = 1514 * 8 / 10e6
        assert times[1] - times[0] == pytest.approx(gap)
        assert times[2] - times[1] == pytest.approx(gap)

    def test_duplex_directions_are_independent(self):
        sim = Simulator()
        a, b, link = build(sim, bandwidth_bps=units.mbps(10),
                           propagation_delay=0.001)
        link.send_from(a, make_packet())
        link.send_from(b, make_packet())
        sim.run()
        assert len(a.received) == 1
        assert len(b.received) == 1

    def test_fifo_order_preserved(self):
        sim = Simulator()
        a, b, link = build(sim)
        packets = [make_packet(500 + i) for i in range(5)]
        for packet in packets:
            link.send_from(a, packet)
        sim.run()
        assert [p for _, p in b.received] == packets

    def test_non_endpoint_sender_rejected(self):
        sim = Simulator()
        a, b, link = build(sim)
        stranger = SinkNode(sim, "stranger")
        with pytest.raises(ValueError):
            link.send_from(stranger, make_packet())


class TestLossAndJitter:
    def test_lossless_by_default(self):
        sim = Simulator()
        a, b, link = build(sim)
        for _ in range(50):
            link.send_from(a, make_packet())
        sim.run()
        assert len(b.received) == 50

    def test_total_loss_drops_everything(self):
        sim = Simulator(seed=3)
        a, b, link = build(sim, loss=LossModel(1.0,
                                               sim.streams.stream("loss")))
        for _ in range(10):
            link.send_from(a, make_packet())
        sim.run()
        assert b.received == []
        assert link.direction_stats(a).packets_lost == 10

    def test_partial_loss_is_partial(self):
        sim = Simulator(seed=3)
        a, b, link = build(sim, loss=LossModel(0.5,
                                               sim.streams.stream("loss")))
        for _ in range(200):
            link.send_from(a, make_packet())
        sim.run()
        assert 0 < len(b.received) < 200

    def test_jitter_spreads_arrivals(self):
        sim = Simulator(seed=5)
        rng = sim.streams.stream("jitter")
        a, b, link = build(sim, propagation_delay=0.010,
                           jitter=lambda: rng.uniform(0.0, 0.005))
        # Send with spacing large enough that serialization never backs up.
        for i in range(20):
            sim.schedule_at(i * 0.1, link.send_from, a, make_packet())
        sim.run()
        offsets = [t - i * 0.1 for i, (t, _) in enumerate(b.received)]
        assert max(offsets) - min(offsets) > 0.001

    def test_queue_overflow_drops(self):
        sim = Simulator()
        a, b, link = build(sim, bandwidth_bps=units.kbps(64),
                           queue_capacity_bytes=3000)
        for _ in range(10):
            link.send_from(a, make_packet(1500))
        sim.run()
        assert len(b.received) < 10
        assert link.direction_stats(a).packets_lost > 0

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        a = SinkNode(sim, "a")
        b = SinkNode(sim, "b")
        with pytest.raises(ValueError):
            Link(sim, a, b, bandwidth_bps=0)
        with pytest.raises(ValueError):
            Link(sim, a, b, propagation_delay=-1)

    @pytest.mark.parametrize("bad", [0, -1.0, float("nan"), float("inf"),
                                     float("-inf")])
    def test_bad_bandwidth_rejected(self, bad):
        sim = Simulator()
        a, b, link = build(sim)
        with pytest.raises(ValueError, match="bandwidth"):
            Link(sim, a, b, bandwidth_bps=bad)
        with pytest.raises(ValueError, match="bandwidth"):
            link.set_bandwidth(bad)
        assert link.bandwidth_bps == units.mbps(10)
        assert link._forward._bandwidth_bps == units.mbps(10)

    @pytest.mark.parametrize("bad", [-1e-9, float("nan"), float("inf"),
                                     float("-inf")])
    def test_bad_propagation_delay_rejected(self, bad):
        sim = Simulator()
        a, b, link = build(sim)
        with pytest.raises(ValueError, match="propagation delay"):
            Link(sim, a, b, propagation_delay=bad)
        with pytest.raises(ValueError, match="propagation delay"):
            link.set_propagation_delay(bad)
        assert link.propagation_delay == 0.001
        assert link._forward._propagation_delay == 0.001

    def test_loss_model_validates_probability(self):
        with pytest.raises(ValueError):
            LossModel(1.5)

    def test_custom_queue_factory_used_per_direction(self):
        from repro.netsim.queues import RedQueue

        sim = Simulator()
        a = SinkNode(sim, "a")
        b = SinkNode(sim, "b")
        built = []

        def factory():
            queue = RedQueue(capacity_bytes=50_000)
            built.append(queue)
            return queue

        link = Link(sim, a, b, queue_factory=factory)
        assert len(built) == 2  # one queue per direction
        link.send_from(a, make_packet())
        sim.run()
        assert built[0].stats.enqueued + built[1].stats.enqueued == 1

    def test_queue_stats_by_sender(self):
        sim = Simulator()
        a, b, link = build(sim)
        link.send_from(a, make_packet())
        sim.run()
        assert link.queue_stats(a).enqueued == 1
        assert link.queue_stats(b).enqueued == 0
        with pytest.raises(ValueError):
            link.queue_stats(SinkNode(sim, "stranger"))

    def test_loss_spares_tcp_by_default(self):
        sim = Simulator(seed=3)
        a, b, link = build(sim, loss=LossModel(1.0,
                                               sim.streams.stream("loss")))
        header = IPv4Header(src=IPAddress.parse("10.0.0.2"),
                            dst=IPAddress.parse("10.0.0.1"),
                            protocol=IpProtocol.TCP, total_length=60)
        for _ in range(5):
            link.send_from(a, Packet(ip=header))
        sim.run()
        # TCP survives total UDP loss (stands in for retransmission).
        assert len(b.received) == 5

    def test_loss_can_drop_tcp_when_asked(self):
        sim = Simulator(seed=3)
        loss = LossModel(1.0, sim.streams.stream("loss"), spare_tcp=False)
        a, b, link = build(sim, loss=loss)
        header = IPv4Header(src=IPAddress.parse("10.0.0.2"),
                            dst=IPAddress.parse("10.0.0.1"),
                            protocol=IpProtocol.TCP, total_length=60)
        link.send_from(a, Packet(ip=header))
        sim.run()
        assert b.received == []


def zero_jitter():
    """Always 0.0: the arithmetic of ``jitter=None``, but as a callable,
    which keeps the two-event transmitter (the reference)."""
    return 0.0


class TestEventCount:
    """An uncontended packet costs one event on a zero-jitter link.

    A burst of n sent at one instant costs its n deliveries plus one
    transmitter completion per packet that waited (n - 1).  A jitter
    callable, span tracing, or a flow-level director keeps the two-event
    transmitter: 2 events per packet either way.
    """

    @staticmethod
    def spaced_and_burst_events(sim, jitter=None):
        a, b, link = build(sim, jitter=jitter)
        spaced = 0
        for _ in range(20):
            link.send_from(a, make_packet())
            spaced += sim.run()
        for _ in range(20):
            link.send_from(a, make_packet())
        burst = sim.run()
        assert len(b.received) == 40
        return spaced, burst

    def test_zero_jitter_link_spends_one_event_per_idle_hop(self):
        assert self.spaced_and_burst_events(Simulator()) == (20, 2 * 20 - 1)

    @pytest.mark.parametrize("make_sim, jitter", [
        (Simulator, zero_jitter),
        (lambda: Simulator(telemetry=Telemetry(spans=SpanRecorder())), None),
        (lambda: Simulator(fast_path=FlowLevelConfig()), None),
    ], ids=["jitter-callable", "span-tracing", "flow-level-director"])
    def test_two_event_transmitter_kept(self, make_sim, jitter):
        assert self.spaced_and_burst_events(make_sim(), jitter) == (40, 40)


class TestCallsPerHop:
    """What one warm router hop costs, in Python function calls.

    A second 500-byte datagram crosses an idle jitter-free path whose
    routes are already memoized; one more router adds one hop to it.
    The count is exact on any machine, so a rise shows without a timer.
    A hop is :meth:`_Direction._deliver`, ``Router.handle_packet``,
    ``Node.send_packet``, ``Link.send_from``, ``_Direction.send``,
    ``DropTailQueue.offer``, ``_Direction._transmit_next``,
    ``DropTailQueue.poll`` and ``Simulator.schedule_at``.
    """

    CALLS_PER_HOP = 9

    @staticmethod
    def second_datagram_calls(hop_count):
        sim = Simulator(seed=1)
        path = build_path_topology(sim, hop_count=hop_count, jitter_std=0.0)
        socket = path.server.udp.bind_ephemeral()
        socket.send(path.client.address, 5004, 500)
        sim.run()
        calls = collections.Counter()

        def count(frame, event, arg):
            if event == "call":
                calls[frame.f_code] += 1

        sys.setprofile(count)
        try:
            socket.send(path.client.address, 5004, 500)
            sim.run()
        finally:
            sys.setprofile(None)
        return calls

    def test_warm_hop_call_count(self):
        longer = self.second_datagram_calls(11)
        shorter = self.second_datagram_calls(10)
        assert (sum(longer.values()) - sum(shorter.values())
                == self.CALLS_PER_HOP)
        for function in (Router.handle_packet, Link.send_from,
                         DropTailQueue.offer, DropTailQueue.poll):
            code = function.__code__
            assert longer[code] - shorter[code] == 1, function.__qualname__


BANDWIDTHS = (units.kbps(64), units.mbps(1), units.mbps(10))
DELAYS = (0.0, 0.0005, 0.004, 0.03)

#: A burst: (send time, packet sizes sent at that instant, whether one
#: more packet follows at exactly the instant the wire frees up).
BURSTS = st.tuples(st.floats(min_value=0.0, max_value=0.1),
                   st.lists(st.integers(min_value=40, max_value=1500),
                            min_size=1, max_size=6),
                   st.booleans())

#: A link change: (time, action, value).  An integer time picks a
#: serialization-end instant of the unchanged traffic; a float is a
#: plain time.
CHANGES = st.tuples(
    st.one_of(st.integers(min_value=0, max_value=1000),
              st.floats(min_value=0.0, max_value=0.3)),
    st.sampled_from(["delay", "bandwidth", "up"]),
    st.integers(min_value=0, max_value=3))


def apply_change(link, action, value):
    if action == "delay":
        link.set_propagation_delay(DELAYS[value])
    elif action == "bandwidth":
        link.set_bandwidth(BANDWIDTHS[value % len(BANDWIDTHS)])
    else:
        link.set_up(value % 2 == 1)


def send_burst(sim, link, a, sizes, chained):
    for size in sizes:
        link.send_from(a, make_packet(size))
    wire_free = link._forward._busy_until
    if chained and wire_free >= sim.now:
        sim.schedule_at(wire_free, link.send_from, a, make_packet(sizes[0]))


def replay(jitter, bandwidth, delay, capacity, bursts, changes=(),
           checkpoints=()):
    """Run one link through a schedule; its observable state at each
    checkpoint and at the end, plus the serialization-end instants."""
    sim = Simulator()
    a, b, link = build(sim, bandwidth_bps=bandwidth, propagation_delay=delay,
                       queue_capacity_bytes=capacity, jitter=jitter)
    direction = link._forward
    ends = []
    if jitter is not None:
        finish = direction._finish_transmit

        def record_end(packet):
            ends.append(sim.now)
            finish(packet)

        direction._finish_transmit = record_end
    # Changes first, as FaultController.arm schedules a whole scenario
    # before the traffic it disturbs.
    for at, action, value in changes:
        sim.schedule_at(at, apply_change, link, action, value)
    for at, sizes, chained in bursts:
        sim.schedule_at(at, send_burst, sim, link, a, sizes, chained)
    states = []
    for until in (*checkpoints, None):
        sim.run(until=until)
        states.append((
            [(t, packet.ip_bytes) for t, packet in b.received],
            dataclasses.astuple(link.direction_stats(a)),
            dataclasses.astuple(link.queue_stats(a)),
            direction._in_flight))
    return states, ends


class TestOneEventMatchesTwoEvent:
    """``jitter=None`` (one event per idle hop) against a 0.0 callable
    (two events per hop) on otherwise identical links: the same
    deliveries, direction and queue counters, and in-flight count."""

    @given(bandwidth=st.sampled_from(BANDWIDTHS),
           delay=st.sampled_from(DELAYS),
           capacity=st.integers(min_value=1500, max_value=9000),
           bursts=st.lists(BURSTS, min_size=1, max_size=8),
           changes=st.lists(CHANGES, max_size=5),
           checkpoint_picks=st.lists(st.integers(min_value=0,
                                                 max_value=1000),
                                     max_size=3))
    @settings(max_examples=200, deadline=None)
    # A packet sent when the wire frees up, scheduled before a second
    # packet came to wait: the waiting packet must still go first.
    @example(bandwidth=units.kbps(64), delay=0.0, capacity=1500,
             bursts=[(0.0, [40], True), (0.0, [40], False)], changes=[],
             checkpoint_picks=[])
    # The delay drops while the second of two packets serializes: it
    # takes the new delay but may not overtake the first.
    @example(bandwidth=units.mbps(10), delay=0.03, capacity=9000,
             bursts=[(0.0, [1500, 1500], False)],
             changes=[(0.002, "delay", 1)], checkpoint_picks=[])
    # The delay drops exactly when a packet finishes serializing.
    @example(bandwidth=units.kbps(64), delay=0.03, capacity=9000,
             bursts=[(0.0, [1500], False)], changes=[(0, "delay", 1)],
             checkpoint_picks=[])
    def test_same_observables(self, bandwidth, delay, capacity, bursts,
                              changes, checkpoint_picks):
        _, ends = replay(zero_jitter, bandwidth, delay, capacity, bursts)
        assert ends  # the first packet always fits the queue

        def resolve(when):
            return ends[when % len(ends)] if isinstance(when, int) else when

        timed = [(resolve(when), action, value)
                 for when, action, value in changes]
        checkpoints = sorted({ends[pick % len(ends)]
                              for pick in checkpoint_picks})
        reference, _ = replay(zero_jitter, bandwidth, delay, capacity,
                              bursts, timed, checkpoints)
        one_event, _ = replay(None, bandwidth, delay, capacity, bursts,
                              timed, checkpoints)
        assert one_event == reference


#: Serialization rates as the program builds them: plain ints and
#: floats, ``units.mbps``/``units.kbps`` conversions, and degrade-style
#: fractions of a nominal rate.
RATES = st.one_of(
    st.integers(min_value=1, max_value=2 ** 64),
    st.floats(min_value=1e-3, max_value=1e12),
    st.floats(min_value=1e-3, max_value=1e4).map(units.mbps),
    st.floats(min_value=1.0, max_value=1e5).map(units.kbps),
    st.tuples(st.sampled_from(BANDWIDTHS + (units.mbps(100),)),
              st.floats(min_value=1e-3, max_value=1.0)).map(
        lambda pair: pair[0] * pair[1]),
)


class TestSerializationArithmetic:
    """The transmitter computes ``units.transmission_delay`` inline, so
    one packet on an idle link arrives at exactly ``(start +
    transmission_delay(wire_bytes, bandwidth)) + delay``, on either
    transmitter path, whether the rate was set at construction or by
    ``set_bandwidth`` (as a degrade fault sets it)."""

    @given(size=st.integers(min_value=units.IPV4_HEADER_BYTES,
                            max_value=units.DEFAULT_MTU_BYTES),
           bandwidth=RATES,
           delay=st.floats(min_value=0.0, max_value=1.0),
           start=st.floats(min_value=0.0, max_value=1e3),
           one_event=st.booleans(),
           set_later=st.booleans())
    @settings(max_examples=300, deadline=None)
    @example(size=1500, bandwidth=units.mbps(10), delay=0.001, start=0.0,
             one_event=True, set_later=False)
    @example(size=20, bandwidth=3, delay=0.0, start=0.1, one_event=False,
             set_later=True)
    def test_idle_link_arrival_is_bit_exact(self, size, bandwidth, delay,
                                            start, one_event, set_later):
        sim = Simulator()
        a, b, link = build(
            sim, propagation_delay=delay,
            jitter=None if one_event else zero_jitter,
            **({} if set_later else {"bandwidth_bps": bandwidth}))
        if set_later:
            link.set_bandwidth(bandwidth)
        packet = make_packet(size)
        sim.schedule_at(start, link.send_from, a, packet)
        sim.run()
        tx_delay = units.transmission_delay(packet.wire_bytes, bandwidth)
        assert b.received == [((start + tx_delay) + delay, packet)]
