"""Cross-cutting property-based tests (hypothesis).

Each class pins an invariant that must hold for *arbitrary* inputs, not
just the calibrated paper scenarios: event ordering in the engine,
byte conservation in the pacers, reassembly under arbitrary fragment
interleavings, pcap round trips, and display-filter algebra.
"""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capture.filters import compile_filter
from repro.capture.pcap import read_pcap, write_pcap
from repro.capture.trace import Trace
from repro.netsim.engine import Simulator

from .conftest import HostPair
from .helpers import make_record


class TestEngineOrderingProperty:
    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_events_always_fire_in_time_order(self, times):
        sim = Simulator()
        fired = []
        for time in times:
            sim.schedule_at(time, fired.append, time)
        sim.run()
        assert fired == sorted(times)
        assert sim.now == max(times)

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                              st.booleans()),
                    min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_ties_and_cancels_fire_by_time_then_scheduling_index(self, plan):
        # Few distinct times, so most events tie with another.
        sim = Simulator()
        fired = []
        events = [sim.schedule_at(float(time), fired.append, index)
                  for index, (time, _) in enumerate(plan)]
        for event, (_, cancel) in zip(events, plan):
            if cancel:
                sim.cancel(event)
                sim.cancel(event)  # a second cancel changes nothing
        kept = [index for index, (_, cancel) in enumerate(plan)
                if not cancel]
        assert sim.pending_events == len(kept)
        assert sim.run() == len(kept)
        assert fired == sorted(kept, key=lambda index: (plan[index][0], index))
        assert sim.executed_events == len(kept)
        assert sim.pending_events == 0
        for event in events:
            sim.cancel(event)  # cancelling a fired event changes nothing
        assert sim.pending_events == 0

    @given(st.lists(st.floats(min_value=0.001, max_value=10.0),
                    min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_relative_scheduling_accumulates(self, delays):
        sim = Simulator()
        seen = []

        def chain(remaining):
            seen.append(sim.now)
            if remaining:
                sim.schedule_in(remaining[0], chain, remaining[1:])

        sim.schedule_in(delays[0], chain, delays[1:])
        sim.run()
        assert len(seen) == len(delays)
        assert seen == sorted(seen)


class TestPacerConservationProperty:
    @given(kbps=st.floats(min_value=20.0, max_value=900.0),
           duration=st.floats(min_value=3.0, max_value=25.0))
    @settings(max_examples=20, deadline=None)
    def test_cbr_pacer_sends_exactly_its_budget(self, kbps, duration):
        from repro.media.clip import Clip, ClipEncoding, PlayerFamily
        from repro.media.codec import SyntheticCodec
        from repro.servers.pacing import CbrAduPacer

        sim = Simulator(seed=1)
        pair = HostPair(sim)
        clip = Clip(title="p", genre="T", duration=duration,
                    encoding=ClipEncoding(family=PlayerFamily.WMP,
                                          encoded_kbps=kbps,
                                          advertised_kbps=kbps))
        schedule = SyntheticCodec(random.Random(2)).encode(clip)
        received = []
        sink = pair.right.udp.bind(7000)
        sink.on_receive = received.append
        pacer = CbrAduPacer(sim, pair.left.udp.bind_ephemeral(),
                            pair.right.address, 7000, clip, schedule,
                            rng=random.Random(2))
        pacer.start()
        sim.run(until=duration * 3 + 60)
        assert pacer.bytes_sent == pacer.total_media_bytes
        media = sum(d.payload_bytes for d in received
                    if d.payload.kind == "media")
        assert media == pacer.bytes_sent
        # Every frame is named exactly once across all datagrams.
        frames = [n for d in received for n in d.payload.frame_numbers]
        assert sorted(frames) == list(range(len(schedule)))


class TestReassemblyInterleavingProperty:
    @given(sizes=st.lists(st.integers(min_value=1473, max_value=20_000),
                          min_size=1, max_size=6),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_datagram_mix_reassembles(self, sizes, seed):
        sim = Simulator(seed=1)
        pair = HostPair(sim)
        received = []
        sink = pair.right.udp.bind(7000)
        sink.on_receive = received.append
        # Capture the emitted fragments instead of sending them.
        captured = []
        pair.left.send_packet = captured.append
        source = pair.left.udp.bind_ephemeral()
        for size in sizes:
            source.send(pair.right.address, 7000, size)
        # Deliver in a shuffled order: fragments of different datagrams
        # interleave arbitrarily (offsets within a datagram may even
        # arrive out of order — IP must cope).
        rng = random.Random(seed)
        rng.shuffle(captured)
        for packet in captured:
            pair.right.ip.receive(packet)
        assert sorted(d.payload_bytes for d in received) == sorted(sizes)
        assert all(d.fragment_count >= 2 for d in received)


class TestPcapRoundTripProperty:
    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=1e5, allow_nan=False),
        st.integers(min_value=28, max_value=1500),
        st.sampled_from(["UDP", "TCP", "ICMP"]),
        st.integers(min_value=0, max_value=0xFFFF)),
        min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_wire_fields_survive(self, rows):
        records = []
        for index, (time, size, protocol, ident) in enumerate(
                sorted(rows), start=1):
            ports = {}
            if protocol == "ICMP":
                ports = dict(src_port=None, dst_port=None)
            records.append(make_record(
                number=index, time=time, ip_bytes=size,
                protocol=protocol, identification=ident, **ports))
        trace = Trace(records)
        buffer = io.BytesIO()
        write_pcap(trace, buffer)
        buffer.seek(0)
        loaded = read_pcap(buffer)
        assert len(loaded) == len(trace)
        for before, after in zip(trace, loaded):
            assert after.ip_bytes == before.ip_bytes
            assert after.protocol == before.protocol
            assert after.identification == before.identification
            assert after.time == pytest.approx(before.time, abs=1e-6)


class TestIpFragmentationProperty:
    @given(mtu=st.integers(min_value=96, max_value=1500),
           sizes=st.lists(st.integers(min_value=1, max_value=10_000),
                          min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_round_trips_for_arbitrary_sizes_and_mtus(self, mtu, sizes):
        from repro import units

        sim = Simulator(seed=1)
        pair = HostPair(sim, mtu=mtu)
        received = []
        sink = pair.right.udp.bind(7000)
        sink.on_receive = received.append
        source = pair.left.udp.bind_ephemeral()
        for index, size in enumerate(sizes):
            # Space the sends out so even a worst-case fragment train
            # never overflows the link's drop-tail queue.
            sim.schedule_at(index * 0.1, source.send,
                            pair.right.address, 7000, size)
        sim.run()
        assert sorted(d.payload_bytes for d in received) == sorted(sizes)
        max_unfragmented = (mtu - units.IPV4_HEADER_BYTES
                            - units.UDP_HEADER_BYTES)
        for datagram in received:
            fragmented = datagram.payload_bytes > max_unfragmented
            assert (datagram.fragment_count >= 2) == fragmented
        # Reassembly left nothing behind on either host.
        assert pair.right.ip.pending_reassemblies == 0
        assert pair.left.ip.pending_reassemblies == 0


class TestTcpLossRecoveryProperty:
    @given(probability=st.floats(min_value=0.0, max_value=0.25),
           loss_seed=st.integers(min_value=0, max_value=1000),
           count=st.integers(min_value=1, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_reliable_tcp_delivers_in_order_under_loss(
            self, probability, loss_seed, count):
        from repro import units
        from repro.netsim.addressing import IPAddress
        from repro.netsim.link import Link, LossModel
        from repro.netsim.node import Host
        from repro.netsim.tcp import MSS_BYTES, TcpReliability

        sim = Simulator(seed=1)
        left = Host(sim, "left", IPAddress.parse("10.0.0.1"))
        right = Host(sim, "right", IPAddress.parse("10.0.0.2"))
        Link(sim, left, right, bandwidth_bps=units.mbps(100),
             propagation_delay=0.001,
             loss=LossModel(probability, random.Random(loss_seed),
                            spare_tcp=False))
        left.routing.set_default(right)
        right.routing.set_default(left)
        policy = TcpReliability(rto_initial=0.2, rto_max=1.0,
                                max_retries=30, handshake_timeout=60.0)
        left.tcp.reliability = policy
        right.tcp.reliability = policy

        inbox = []
        accepted = []

        def on_accept(conn):
            accepted.append(conn)
            conn.on_message = lambda c, msg: inbox.append(msg)

        right.tcp.listen(554, on_accept)
        client = left.tcp.connect(right.address, 554)
        client.on_established = lambda conn: [
            conn.send_message(i, MSS_BYTES + 17) for i in range(count)]
        sim.run()
        assert len(accepted) == 1
        assert inbox == list(range(count))
        assert accepted[0].messages_received == count
        if probability == 0.0:
            assert client.retransmits == 0


class TestTelemetryMergeProperty:
    INCREMENTS = st.lists(
        st.tuples(st.sampled_from(["pkts", "drops", "bytes"]),
                  st.sampled_from(["a", "b", "c"]),
                  st.integers(min_value=1, max_value=100)),
        min_size=0, max_size=12)

    @staticmethod
    def _snapshot(increments, tag):
        from repro.telemetry import MemorySink, Telemetry

        worker = Telemetry(sinks=[MemorySink(capacity=None)])
        for name, label, amount in increments:
            worker.counter(name, link=label).inc(amount)
        worker.emit("worker.done", worker_tag=tag,
                    increments=len(increments))
        return worker.snapshot()

    @staticmethod
    def _counter_totals(telemetry):
        return {(name, str(labels)): counter.value
                for name, labels, counter
                in telemetry.registry.counters()}

    @given(first=INCREMENTS, second=INCREMENTS, third=INCREMENTS)
    @settings(max_examples=40, deadline=None)
    def test_merge_is_associative(self, first, second, third):
        from repro.telemetry import MemorySink, Telemetry

        # A snapshot is consumed by merging (the facade adopts its
        # instrument objects), so each fold rebuilds fresh ones from
        # the same increment lists — exactly one merge per snapshot,
        # as the parallel study runner does.
        workers = (first, second, third)

        flat = Telemetry(sinks=[MemorySink(capacity=None)])
        for tag, increments in enumerate(workers):
            flat.merge(self._snapshot(increments, tag))

        # (second + third) pre-merged into an intermediate facade, its
        # snapshot then folded after first: same totals, same stream.
        intermediate = Telemetry(sinks=[MemorySink(capacity=None)])
        intermediate.merge(self._snapshot(second, 1))
        intermediate.merge(self._snapshot(third, 2))
        grouped = Telemetry(sinks=[MemorySink(capacity=None)])
        grouped.merge(self._snapshot(first, 0))
        grouped.merge(intermediate.snapshot())

        assert self._counter_totals(flat) == self._counter_totals(grouped)
        assert ([(e.type, e.time, e.fields) for e in flat.memory_events()]
                == [(e.type, e.time, e.fields)
                    for e in grouped.memory_events()])

    @given(increments=st.lists(INCREMENTS, min_size=2, max_size=4),
           order_seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_counter_totals_are_order_independent(self, increments,
                                                  order_seed):
        from repro.telemetry import MemorySink, Telemetry

        ordered = Telemetry(sinks=[MemorySink(capacity=None)])
        for tag, part in enumerate(increments):
            ordered.merge(self._snapshot(part, tag))
        shuffled_parts = list(enumerate(increments))
        random.Random(order_seed).shuffle(shuffled_parts)
        shuffled = Telemetry(sinks=[MemorySink(capacity=None)])
        for tag, part in shuffled_parts:
            shuffled.merge(self._snapshot(part, tag))
        assert (self._counter_totals(ordered)
                == self._counter_totals(shuffled))


class TestFilterAlgebraProperty:
    FIELD_EXPRESSIONS = st.sampled_from([
        "udp", "tcp", "icmp", "ip.frag", "ip.frag.trailing",
        "frame.len > 500", "frame.len <= 1200", "ip.ttl == 110",
        "udp.dstport == 7000", "dir == rx",
    ])

    @st.composite
    def record(draw):
        protocol = draw(st.sampled_from(["UDP", "TCP", "ICMP"]))
        fragment_offset = draw(st.sampled_from([0, 0, 0, 185, 370]))
        more = draw(st.booleans()) if fragment_offset == 0 else \
            draw(st.booleans())
        ports = {}
        if protocol == "ICMP" or fragment_offset > 0:
            ports = dict(src_port=None, dst_port=None)
        return make_record(
            protocol=protocol,
            ip_bytes=draw(st.integers(min_value=28, max_value=1500)),
            ttl=draw(st.integers(min_value=1, max_value=255)),
            more_fragments=more if fragment_offset == 0 else False,
            fragment_offset=fragment_offset,
            direction=draw(st.sampled_from(["rx", "tx"])),
            **ports)

    @given(expr=FIELD_EXPRESSIONS, rec=record())
    @settings(max_examples=150, deadline=None)
    def test_negation_inverts(self, expr, rec):
        positive = compile_filter(expr)
        negative = compile_filter(f"!({expr})")
        assert positive(rec) != negative(rec)

    @given(a=FIELD_EXPRESSIONS, b=FIELD_EXPRESSIONS, rec=record())
    @settings(max_examples=150, deadline=None)
    def test_demorgan(self, a, b, rec):
        lhs = compile_filter(f"!(({a}) && ({b}))")
        rhs = compile_filter(f"!({a}) || !({b})")
        assert lhs(rec) == rhs(rec)

    @given(a=FIELD_EXPRESSIONS, b=FIELD_EXPRESSIONS, rec=record())
    @settings(max_examples=150, deadline=None)
    def test_conjunction_implies_conjuncts(self, a, b, rec):
        both = compile_filter(f"({a}) && ({b})")
        if both(rec):
            assert compile_filter(a)(rec)
            assert compile_filter(b)(rec)


class TestFecParityProperty:
    """XOR parity must round-trip any single loss, for arbitrary group
    sizes, block lengths, and loss positions."""

    @given(data=st.data(),
           blocks=st.lists(st.binary(min_size=0, max_size=96),
                           min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_single_loss_round_trips(self, data, blocks):
        from repro.repair import recover_block, xor_parity

        parity = xor_parity(blocks)
        assert len(parity) == max(len(block) for block in blocks)
        lost = data.draw(st.integers(min_value=0,
                                     max_value=len(blocks) - 1),
                         label="lost_index")
        survivors = [block for index, block in enumerate(blocks)
                     if index != lost]
        rebuilt = recover_block(survivors, parity, len(blocks[lost]))
        assert rebuilt == blocks[lost]

    @given(blocks=st.lists(st.binary(min_size=1, max_size=64),
                           min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_parity_is_order_independent(self, blocks):
        from repro.repair import xor_parity

        assert xor_parity(blocks) == xor_parity(list(reversed(blocks)))


class TestNackNoRerequestProperty:
    """Driving the NACK manager exactly as the receiver loop does —
    requesting only what ``due()`` returns — must never re-request a
    recovered sequence, for arbitrary miss/recover/abandon/tick
    interleavings."""

    OPS = st.lists(
        st.tuples(st.sampled_from(["miss", "recover", "abandon", "tick"]),
                  st.integers(min_value=0, max_value=6)),
        max_size=60)

    @given(ops=OPS)
    @settings(max_examples=150, deadline=None)
    def test_recovered_sequences_never_rerequested(self, ops):
        from repro.repair import NackManager, RepairCandidate

        manager = NackManager(max_retries=3, timeout=0.25)
        now = 0.0
        for op, sequence in ops:
            now += 0.2
            if op == "miss":
                manager.note_missing(
                    RepairCandidate(sequence=sequence, size_bytes=100,
                                    value_bytes=100), now)
            elif op == "recover":
                manager.on_recovered(sequence)
            elif op == "abandon":
                manager.abandon(sequence, "deadline")
            else:  # tick: the receiver loop requests whatever is due
                for candidate in manager.due(now):
                    manager.on_requested(candidate.sequence, now)
            # The loop's one load-bearing property:
            assert manager.requests_after_repair == 0
            due = {candidate.sequence for candidate in manager.due(1e9)}
            assert not due & manager.recovered
            assert not due & set(manager.abandoned)
            assert not manager.recovered & set(manager.abandoned)
        for sequence in manager.recovered:
            assert not manager.note_missing(
                RepairCandidate(sequence=sequence, size_bytes=100,
                                value_bytes=100), now + 1.0)
