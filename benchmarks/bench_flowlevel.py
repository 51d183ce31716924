"""Benchmarks of the flow-level fast path (``repro.netsim.flowlevel``).

Two levels, matching the two claims the fast path makes:

* **Substrate** — spaced probe trains over an uncontended 25-hop path,
  where the analytic model replaces every per-hop event.  This is the
  regime the design targets (10-100x); the bench *asserts* a >= 5x
  median speedup over the event-driven serializer, so the closed-form
  schedule losing its edge fails the run outright rather than drifting.
* **Study** — the full Table 1 sweep with ``fast_path`` on, sequential
  and through the persistent ``jobs=2`` pool.  Player, pacing, and
  analysis overhead dilute the substrate win here (the protocol
  fallback share is structural: ICMP probes and receiver reports stay
  event-driven), so these are gated by the >25% median-regression CI
  diff (``scripts/bench_compare.py``) instead of a fixed ratio.
"""

import statistics
import time

from repro.experiments.parallel import pool_info
from repro.experiments.runner import run_study
from repro.netsim.engine import Simulator
from repro.netsim.flowlevel import FlowLevelConfig
from repro.netsim.topology import build_path_topology

STUDY_BENCH_SEED = 77
STUDY_BENCH_SCALE = 0.04
STUDY_BENCH_ROUNDS = 3

#: Uncontended-delivery workload: probe trains spaced far beyond their
#: serialization time, so every train is provably exact in strict mode.
DELIVERY_TRAINS = 400
DELIVERY_HOPS = 25
#: The floor the substrate bench enforces: the fast path may not
#: quietly decay into the event path.  On a 2-vCPU Xeon VM (Python
#: 3.11.7) the gated median read 5.5-6.2x over eight runs of CI's
#: smoke step, and single pairs 3.0-8.7x.
MIN_UNCONTENDED_SPEEDUP = 5.0
#: The gate reads the median ratio of this many fast/event pairs, each
#: pair timed back to back, with the leg that runs first alternating:
#: a shift in the machine's speed then moves single ratios, not the
#: median.  Timing all fast rounds and then all event rounds let one
#: such shift read as a 3.9x ratio on the same box.
GATE_PAIRS = 5


def _deliver_trains(fast_path):
    """Run the probe-train workload; return (elapsed, deliveries)."""
    sim = Simulator(seed=1, fast_path=fast_path)
    path = build_path_topology(sim, hop_count=DELIVERY_HOPS, rtt=0.040,
                               jitter_std=0.0)
    received = []
    sink = path.client.udp.bind(7000)
    sink.on_receive = received.append
    source = path.server.udp.bind_ephemeral()
    for index in range(DELIVERY_TRAINS):
        sim.schedule_at(index * 0.01, source.send,
                        path.client.address, 7000, 12000)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return elapsed, [(d.payload_bytes, d.fragment_count,
                      d.first_packet_time, d.arrival_time)
                     for d in received]


def test_bench_flowlevel_uncontended_delivery(benchmark):
    """Analytic delivery on an idle 25-hop path, with the >=5x gate."""
    fast_deliveries = None
    def timed_fast():
        nonlocal fast_deliveries
        _, fast_deliveries = _deliver_trains(FlowLevelConfig(strict=True))
        return len(fast_deliveries)

    count = benchmark.pedantic(timed_fast, rounds=STUDY_BENCH_ROUNDS,
                               iterations=1)
    assert count == DELIVERY_TRAINS

    ratios = []
    # Each pair's ratio and the leg it ran first, for the failure
    # message: it shows whether one pair alone read low.
    readings = []
    for pair in range(GATE_PAIRS):
        legs = [FlowLevelConfig(strict=True), None]
        if pair % 2:
            legs.reverse()
        seconds = {}
        for fast_path in legs:
            elapsed, deliveries = _deliver_trains(fast_path)
            seconds["event" if fast_path is None else "fast"] = elapsed
            # Strict mode on an uncontended path is exact, not approximate.
            assert deliveries == fast_deliveries
        ratio = seconds["event"] / seconds["fast"]
        ratios.append(ratio)
        readings.append(f"{ratio:.2f}x ({'event' if pair % 2 else 'fast'} "
                        "first)")
    speedup = statistics.median(ratios)
    assert speedup >= MIN_UNCONTENDED_SPEEDUP, (
        f"uncontended fast path only {speedup:.2f}x faster than the "
        f"event serializer (floor {MIN_UNCONTENDED_SPEEDUP}x); the "
        "analytic model has lost its reason to exist; pairs in order: "
        + ", ".join(readings))


def test_bench_flowlevel_study(benchmark):
    """The Table 1 sweep delivered analytically (sequential)."""
    def sweep():
        return run_study(seed=STUDY_BENCH_SEED,
                         duration_scale=STUDY_BENCH_SCALE,
                         fast_path=FlowLevelConfig())

    results = benchmark.pedantic(sweep, rounds=STUDY_BENCH_ROUNDS,
                                 iterations=1)
    assert len(results) == 13
    fast = sum(run.fastpath.packets_fast for run in results)
    fallback = sum(run.fastpath.packets_fallback for run in results)
    # The fast path must carry the bulk of the study's media packets —
    # otherwise this bench is timing the event path with extra steps.
    assert fast > fallback


def test_bench_flowlevel_study_parallel(benchmark):
    """The same sweep through the persistent ``jobs=2`` worker pool."""
    def sweep():
        return run_study(seed=STUDY_BENCH_SEED,
                         duration_scale=STUDY_BENCH_SCALE,
                         fast_path=FlowLevelConfig(), jobs=2)

    results = benchmark.pedantic(sweep, rounds=STUDY_BENCH_ROUNDS,
                                 iterations=1)
    assert len(results) == 13
    info = pool_info()
    assert info["workers"] == 2
    assert info["studies"] >= 1
    # One more sweep must reuse the warm pool, not rebuild it.
    sweep()
    after = pool_info()
    assert after["studies"] == info["studies"] + 1
