"""Property tests: the director's fused walk against two references.

* **The event serializer.**  On an uncontended path of any length with
  zero jitter the flow-level model claims *exactness*, not
  approximation: for any train sizes, MTUs, bandwidths, and propagation
  delays, the closed-form queue/tx/prop recursion must reproduce the
  event-driven store-and-forward delivery times bit for bit.  Any
  float-ordering discrepancy between the director and
  ``_Direction._finish_transmit`` shows up as a strict inequality here.
* **:func:`train_schedule`.**  The director inlines the recursion in
  one pass over the path rather than calling the reference per
  direction.  Under chained-mode state (prior reservations, a busy
  serializer, queued backlog, a delivery clamp) and Gaussian jitter,
  its committed arrivals and the direction state it leaves behind must
  equal a chain of :func:`train_schedule` calls over the same pre-train
  state and jitter draws; a refused train must draw exactly what the
  directions before the refusing one drew, and touch nothing.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.netsim.addressing import IPAddress
from repro.netsim.engine import Simulator
from repro.netsim.flowlevel import FlowLevelConfig, train_schedule
from repro.netsim.headers import IpProtocol, IPv4Header
from repro.netsim.link import Link
from repro.netsim.node import Host, Router
from repro.netsim.packet import Packet
from repro.validate import RunValidator

BANDWIDTHS = [units.kbps(128), units.mbps(1), units.mbps(10),
              units.mbps(100)]
PROPAGATIONS = [0.0, 0.0005, 0.01, 0.1]


def _chain(sim, links, mtu=None, jitters=None):
    """Hosts ``left`` and ``right`` joined through ``len(links) - 1``
    routers; returns ``(left, right, directions left to right)``."""
    nodes = [Host(sim, "left", IPAddress.parse("10.0.0.1"), mtu=mtu)]
    nodes += [Router(sim, f"r{index}", IPAddress.parse(f"10.0.1.{index}"))
              for index in range(1, len(links))]
    nodes.append(Host(sim, "right", IPAddress.parse("10.0.0.2"), mtu=mtu))
    directions = []
    for index, (bandwidth_bps, propagation) in enumerate(links):
        link = Link(sim, nodes[index], nodes[index + 1],
                    bandwidth_bps=bandwidth_bps,
                    propagation_delay=propagation,
                    jitter=None if jitters is None else jitters[index])
        nodes[index].routing.set_default(nodes[index + 1])
        directions.append(link._forward)
    nodes[-1].routing.set_default(nodes[-2])
    return nodes[0], nodes[-1], directions


def _bits(values):
    """Floats as their exact bit patterns (so -0.0 != 0.0)."""
    return [float(value).hex() for value in values]


# ----------------------------------------------------------------------
# Against the event serializer (strict mode, zero jitter)
# ----------------------------------------------------------------------

def _run_leg(fast_path, payload_sizes, gaps, links, mtu, seed):
    """Send the datagram schedule on a fresh sim; return observables."""
    sim = Simulator(seed=seed, fast_path=fast_path)
    left, right, _ = _chain(sim, links, mtu=mtu)
    sender = left.udp.bind_ephemeral()
    sink = right.udp.bind(5004)
    received = []
    sink.on_receive = lambda dgram: received.append(
        (dgram.payload_bytes, dgram.fragment_count,
         dgram.first_packet_time, dgram.arrival_time))
    when = 0.0
    for size, gap in zip(payload_sizes, gaps):
        when += gap
        sim.schedule_at(when, sender.send, right.address, 5004, size)
    sim.run()
    return received, sink.bytes_received, sim.fast_path


@settings(max_examples=30, deadline=None)
@given(
    payload_sizes=st.lists(st.integers(min_value=0, max_value=20000),
                           min_size=1, max_size=6),
    gaps=st.lists(st.floats(min_value=0.0, max_value=0.5,
                            allow_nan=False, allow_infinity=False),
                  min_size=6, max_size=6),
    links=st.lists(st.tuples(st.sampled_from(BANDWIDTHS),
                             st.sampled_from(PROPAGATIONS)),
                   min_size=1, max_size=6),
    mtu=st.sampled_from([576, 1500, 9000]),
)
def test_analytic_matches_event_serializer(payload_sizes, gaps, links,
                                           mtu):
    args = (payload_sizes, gaps, links, mtu, 99)
    fast, fast_bytes, director = _run_leg(FlowLevelConfig(strict=True),
                                          *args)
    slow, slow_bytes, _ = _run_leg(None, *args)
    # A lone sender never contends with itself, so every train is
    # analytic and provably exact: the equality is not two event runs.
    assert director.trains_fast == len(payload_sizes)
    assert director.trains_fallback == 0
    assert director.reals_parked == 0
    assert fast == slow
    assert fast_bytes == slow_bytes


def test_spaced_trains_all_ride_the_fast_path():
    # With generous gaps nothing contends, so strict mode accepts
    # every train; the equality above is then exercising the analytic
    # schedule, not trivially comparing two event-driven runs.
    sizes = [4000, 12000, 1472, 0]
    gaps = [0.5, 0.5, 0.5, 0.5]
    config = FlowLevelConfig(strict=True)
    sim = Simulator(seed=99, fast_path=config)
    left = Host(sim, "left", IPAddress.parse("10.0.0.1"))
    right = Host(sim, "right", IPAddress.parse("10.0.0.2"))
    Link(sim, left, right, bandwidth_bps=units.mbps(10),
         propagation_delay=0.01)
    left.routing.set_default(right)
    right.routing.set_default(left)
    sender = left.udp.bind_ephemeral()
    right.udp.bind(5004)
    when = 0.0
    for size, gap in zip(sizes, gaps):
        when += gap
        sim.schedule_at(when, sender.send, right.address, 5004, size)
    sim.run()
    director = sim.fast_path
    assert director.trains_fast == len(sizes)
    assert director.trains_fallback == 0
    assert director.reals_parked == 0


# ----------------------------------------------------------------------
# Against train_schedule (chained mode, jitter, pre-train state)
# ----------------------------------------------------------------------

#: The simulated time every drawn train is sent at.
NOW = 1.0
_offsets = st.floats(min_value=-0.5, max_value=0.05, allow_nan=False)


@st.composite
def _directions(draw):
    """One direction's statics and chained-mode pre-train state."""
    busy = draw(st.booleans())
    return {
        "bandwidth_bps": draw(st.sampled_from(
            BANDWIDTHS + [units.mbps(1.544), units.mbps(45)])),
        "propagation": draw(st.sampled_from(PROPAGATIONS + [0.0037])),
        "jitter_std": draw(st.sampled_from([None, None, 0.0004, 0.002,
                                            0.01])),
        "jitter_seed": draw(st.integers(min_value=0, max_value=2 ** 32)),
        "reserved_until": NOW + draw(_offsets),
        "busy": busy,
        "busy_until": NOW + (draw(st.floats(min_value=0.0, max_value=0.02))
                             if busy else draw(_offsets)),
        # IP sizes of the real packets queued behind the serializer.
        "backlog": draw(st.lists(st.integers(min_value=28, max_value=1500),
                                 max_size=3)),
        "last_delivery": NOW + draw(_offsets),
        # At or before the send time, so no train interleaves here
        # unless the test moves it later (see ``late_entry``).
        "fp_last_entry": NOW + draw(st.floats(min_value=-0.5,
                                              max_value=0.0)),
    }


def _reference(wires, path, draws):
    """The train through a chain of :func:`train_schedule` calls.

    Returns ``(arrivals or None, per-direction (reserved_until,
    fp_last_entry, last_delivery), index of the refusing direction or
    None)``.
    """
    entries = [NOW] * len(wires)
    state = []
    for index, spec in enumerate(path):
        if entries[0] < spec["fp_last_entry"]:
            return None, state, index
        bandwidth = spec["bandwidth_bps"]
        prev_dep = spec["reserved_until"]
        if spec["busy"] and spec["busy_until"] > prev_dep:
            prev_dep = spec["busy_until"]
        for total_length in spec["backlog"]:
            prev_dep += (units.wire_frame_bytes(total_length) * 8.0
                         / bandwidth)
        jitters = draws[index] or [0.0] * len(wires)
        arrivals, dep_last, last_delivery = train_schedule(
            entries, wires, bandwidth, spec["propagation"], prev_dep,
            spec["last_delivery"], jitters)
        state.append((dep_last, entries[-1], last_delivery))
        entries = arrivals
    return entries, state, None


def _backlog_packet(total_length):
    header = IPv4Header(src=IPAddress.parse("10.0.0.9"),
                        dst=IPAddress.parse("10.0.0.2"),
                        protocol=IpProtocol.UDP, total_length=total_length,
                        identification=0)
    return Packet(ip=header)


@settings(max_examples=300, deadline=None)
@given(
    path=st.lists(_directions(), min_size=2, max_size=8),
    fragments=st.integers(min_value=1, max_value=9),
    last_fragment=st.integers(
        min_value=8,
        max_value=units.DEFAULT_MTU_BYTES - units.IPV4_HEADER_BYTES),
    late_entry=st.one_of(st.none(), st.tuples(
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=0.0, max_value=0.3))),
    ledger=st.booleans(),
)
def test_fused_walk_matches_train_schedule_chain(path, fragments,
                                                  last_fragment, late_entry,
                                                  ledger):
    if late_entry is not None:
        # One direction's last committed entry lies after the send
        # time; if it also lies after the train's first entry there,
        # the train interleaves and is refused.
        index, offset = late_entry
        path = [dict(spec) for spec in path]
        path[index % len(path)]["fp_last_entry"] = NOW + offset
    sim = Simulator(seed=5, fast_path=FlowLevelConfig(),
                    validate=(RunValidator(raise_on_violation=False)
                              if ledger else None))
    # Each jittery direction draws from its own Gaussian stream and
    # logs every draw, so the reference replays the exact values and
    # the test sees how many each direction took.
    drawn = [[] for _ in path]

    def gaussian(std, seed, log):
        rng = random.Random(seed)

        def draw():
            value = rng.gauss(0.0, std)
            log.append(value)
            return value
        return draw

    jitters = [None if spec["jitter_std"] is None
               else gaussian(spec["jitter_std"], spec["jitter_seed"], log)
               for spec, log in zip(path, drawn)]
    left, right, directions = _chain(
        sim, [(spec["bandwidth_bps"], spec["propagation"])
              for spec in path], jitters=jitters)
    sim.run(until=NOW)
    for direction, spec in zip(directions, path):
        direction._reserved_until = spec["reserved_until"]
        direction._busy = spec["busy"]
        direction._busy_until = spec["busy_until"]
        direction._last_delivery = spec["last_delivery"]
        direction._fp_last_entry = spec["fp_last_entry"]
        for total_length in spec["backlog"]:
            assert direction._queue.offer(_backlog_packet(total_length))
    before = [(direction._reserved_until, direction._fp_last_entry,
               direction._last_delivery) for direction in directions]

    # UDP header plus payload fills ``fragments`` IP packets: full
    # ones, then one carrying ``last_fragment`` bytes of IP payload.
    full = units.DEFAULT_MTU_BYTES - units.IPV4_HEADER_BYTES
    payload = (fragments - 1) * full + last_fragment - 8
    wires = [units.wire_frame_bytes(units.IPV4_HEADER_BYTES + size)
             for size in [full] * (fragments - 1) + [last_fragment]]
    left.udp.bind_ephemeral().send(right.address, 5004, payload)
    director = sim.fast_path
    # Heap entries are [time, sequence, callback, args]; the director
    # schedules the final direction's delivery of each packet.
    committed = sorted(
        (sequence, time, args[0].wire_bytes)
        for time, sequence, callback, args in sim._heap
        if callback == directions[-1]._deliver)
    after = [(direction._reserved_until, direction._fp_last_entry,
              direction._last_delivery) for direction in directions]
    expected, state, refused_at = _reference(wires, path, drawn)

    if director.trains_fast:
        assert refused_at is None
        assert [wire for _, _, wire in committed] == wires
        assert _bits(time for _, time, _ in committed) == _bits(expected)
        assert [_bits(row) for row in after] == [_bits(row)
                                                 for row in state]
        for log, spec in zip(drawn, path):
            assert len(log) == (0 if spec["jitter_std"] is None
                                else fragments)
        if ledger:
            (record,) = director.ledger
            assert list(record.wires) == wires
            assert _bits(record.arrivals) == _bits(expected)
            assert _bits(record.refold()) == _bits(expected)
            for fold, log in zip(record.directions, drawn):
                assert _bits(fold.jitters) == _bits(log or [0.0] * fragments)
        return

    # Refused: only interleave can refuse this train (no strict mode,
    # headroom to spare, no blackouts), at the direction where the
    # reference's first entry falls before the last one committed.
    # The directions before it drew one value per packet; the rest
    # drew nothing, and no direction's state moved.
    assert refused_at is not None
    assert dict(director.fallback_reasons) == {"interleave": 1}
    assert committed == []
    assert after == before
    for index, (log, spec) in enumerate(zip(drawn, path)):
        jittery = spec["jitter_std"] is not None
        assert len(log) == (fragments if jittery and index < refused_at
                            else 0)
    if ledger:
        assert director.ledger == []
