"""Microbenchmarks of the simulation substrate.

Not a paper artifact — these keep the substrate honest: event-loop
throughput, IP fragmentation cost, end-to-end datagram delivery over a
17-hop path, Section IV flow generation, pcap serialization, and the
full study sweep end to end (sequential and ``jobs=4``).  A regression
here makes the full study sweep painful; CI diffs the medians against
the committed ``BENCH_substrate.json`` (see ``scripts/bench_compare.py``).

``jobs=4`` is clamped to the usable CPUs, so on the 2-CPU reference
box the parallel bench runs two workers (four shared two CPUs for no
gain: a warm sweep took 0.65 s of wall time at ``jobs=4`` and 0.68 s at
``jobs=2``, equal within noise).  ``benchmarks/e2e``'s ``table1-jobs2``
workload measures the parallel speed-up.
"""

import io

from repro.capture.pcap import write_pcap
from repro.core.generator import generate_flow
from repro.experiments.runner import run_study
from repro.media.clip import PlayerFamily
from repro.netsim.engine import Simulator
from repro.netsim.topology import build_path_topology

#: The end-to-end study benches run the full Table 1 sweep at a short
#: duration scale — long enough to exercise every layer (topology,
#: pacing, fragmentation, sniffer, trackers, fitting), short enough to
#: keep a calibrated run affordable on CI hardware.
STUDY_BENCH_SEED = 77
STUDY_BENCH_SCALE = 0.04
STUDY_BENCH_ROUNDS = 3


def test_bench_event_loop(benchmark):
    def run_events():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                sim.schedule_in(0.001, tick)

        sim.schedule_in(0.0, tick)
        sim.run()
        return count[0]

    assert benchmark(run_events) == 10_000


def test_bench_path_delivery(benchmark):
    def deliver_batch():
        sim = Simulator(seed=1)
        path = build_path_topology(sim, hop_count=17, rtt=0.040)
        received = []
        sink = path.client.udp.bind(7000)
        sink.on_receive = received.append
        source = path.server.udp.bind_ephemeral()
        for index in range(100):
            sim.schedule_at(index * 0.01, source.send,
                            path.client.address, 7000, 3840)
        sim.run()
        return len(received)

    assert benchmark(deliver_batch) == 100


def test_bench_flow_generation(benchmark):
    flow = benchmark(generate_flow, PlayerFamily.REAL, 284.0, 60.0, 1)
    assert flow.packet_count > 100


def test_bench_pcap_write(benchmark):
    flow = generate_flow(PlayerFamily.WMP, 307.2, 30.0, seed=1)
    trace = flow.to_trace()

    def write():
        buffer = io.BytesIO()
        return write_pcap(trace, buffer)

    assert benchmark(write) == len(trace)


def test_bench_study_sequential(benchmark):
    """End-to-end wall time of the sequential Table 1 sweep."""
    def sweep():
        return run_study(seed=STUDY_BENCH_SEED,
                         duration_scale=STUDY_BENCH_SCALE)

    results = benchmark.pedantic(sweep, rounds=STUDY_BENCH_ROUNDS,
                                 iterations=1)
    assert len(results) == 13


def test_bench_study_parallel(benchmark):
    """The same sweep through the process-pool executor (``jobs=4``,
    clamped to the usable CPUs).

    On a multi-core runner the median should land well under the
    sequential bench's; on a single-core box the two are at parity
    (the pool adds no meaningful overhead).
    """
    def sweep():
        return run_study(seed=STUDY_BENCH_SEED,
                         duration_scale=STUDY_BENCH_SCALE, jobs=4)

    results = benchmark.pedantic(sweep, rounds=STUDY_BENCH_ROUNDS,
                                 iterations=1)
    assert len(results) == 13
