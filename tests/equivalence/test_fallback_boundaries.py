"""Fallback boundaries: the fast path yields exactly where it must.

The analytic model's validity window is bounded by dynamics it cannot
see from a single train: fault windows, cross-traffic onset, and
congestion-control activation.  These tests pin the *boundary* — the
trains before a window stay fast, the trains inside fall back with the
right reason, and (for closable windows) the trains after go fast
again.  A final test holds the jobs=2 study surface to the sequential
one with the fast path on, so the worker-pool leg inherits the same
equivalence contract.
"""

import random

import pytest

from repro import units
from repro.experiments.conditions import NetworkConditions
from repro.experiments.datasets import build_table1_library
from repro.experiments.runner import run_pair_experiment, run_study
from repro.cc.base import CcConfig
from repro.faults import (
    FaultController,
    FaultEvent,
    FaultScenario,
    build_scenario,
)
from repro.faults.scenario import SET_BANDWIDTH, SET_DELAY
from repro.netsim.addressing import IPAddress
from repro.netsim.crosstraffic import OnOffParetoSource
from repro.netsim.engine import Simulator
from repro.netsim.flowlevel import (
    REASON_BLACKOUT,
    REASON_CROSS_TRAFFIC,
    FlowLevelConfig,
    FlowLevelDirector,
)
from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.validate.checker import RunValidator
from repro.validate.differential import study_surface

SCALE = 0.04
QUIET = NetworkConditions(rtt=0.040, hop_count=17,
                          loss_probability=0.0, jitter_std=0.0)


def _linked_pair(sim):
    """Two hosts on one fast link with default routes both ways."""
    left = Host(sim, "left", IPAddress.parse("10.0.0.1"))
    right = Host(sim, "right", IPAddress.parse("10.0.0.2"))
    Link(sim, left, right, bandwidth_bps=units.mbps(100),
         propagation_delay=0.001)
    left.routing.set_default(right)
    right.routing.set_default(left)
    return left, right


def _probe_setup(sim):
    left, right = _linked_pair(sim)
    right.udp.bind(5004)
    sender = left.udp.bind_ephemeral()

    def send_at(when, payload_bytes=8000):
        sim.schedule_at(when, lambda: sender.send(
            right.address, 5004, payload_bytes))

    return send_at, left, right


class TestBlackoutWindow:
    """A declared window forces packet level for exactly its trains."""

    def test_trains_before_inside_after(self):
        sim = Simulator(seed=7, fast_path=FlowLevelConfig())
        send_at, _, _ = _probe_setup(sim)
        director = sim.fast_path
        assert isinstance(director, FlowLevelDirector)
        director.add_blackout(2.0, 3.0)

        send_at(1.0)
        sim.run(until=1.9)
        assert director.trains_fast == 1
        assert director.trains_fallback == 0

        send_at(2.5)
        sim.run(until=3.5)
        assert director.trains_fast == 1
        assert director.fallback_reasons == {REASON_BLACKOUT: 1}

        send_at(4.0)
        sim.run(until=10.0)
        assert director.trains_fast == 2
        assert director.fallback_reasons == {REASON_BLACKOUT: 1}

    def test_flight_overlapping_window_edge_falls_back(self):
        # The refusal keys on the train's whole flight, not its send
        # instant: a train sent just before the window whose arrival
        # lands inside it must also fall back.
        sim = Simulator(seed=7, fast_path=FlowLevelConfig())
        send_at, _, _ = _probe_setup(sim)
        sim.fast_path.add_blackout(2.0, 3.0)
        send_at(1.9995)  # ~1.3 ms of flight crosses the 2.0 boundary
        sim.run(until=4.0)
        assert sim.fast_path.fallback_reasons == {REASON_BLACKOUT: 1}


class TestCrossTrafficOnset:
    """Source start opens the window; stop closes it behind itself."""

    def test_window_tracks_source_lifetime(self):
        sim = Simulator(seed=11, fast_path=FlowLevelConfig())
        send_at, left, right = _probe_setup(sim)
        director = sim.fast_path
        source = OnOffParetoSource(
            sim, left, right,
            rate_bps=units.mbps(1), mean_on=0.2, mean_off=0.5,
            rng=random.Random(3))
        sim.schedule_at(5.0, source.start)
        sim.schedule_at(8.0, source.stop)

        send_at(1.0)    # before onset: fast
        send_at(6.0)    # inside the on-window: blackout
        send_at(20.0)   # long after stop: fast again
        sim.run(until=30.0)

        assert director.trains_fast == 2
        reasons = director.fallback_reasons
        assert reasons[REASON_BLACKOUT] == 1
        # The noise trains themselves never ride the fast path.
        assert reasons[REASON_CROSS_TRAFFIC] >= 1
        # The stop() closed the open window rather than leaving an
        # infinite one behind.
        assert all(end != float("inf") for _, end in director._blackouts)


class TestCcActivation:
    """First applied cc rate opens a permanent blackout."""

    def test_fast_before_activation_fallback_after(self):
        library = build_table1_library(duration_scale=SCALE)
        clip_set, pair = library.all_pairs()[0]
        result = run_pair_experiment(
            clip_set, pair, seed=5, conditions=QUIET,
            cc=CcConfig(kind="aimd"),
            fast_path=FlowLevelConfig())
        summary = result.fastpath
        assert summary is not None
        # Preroll and early media ride the fast path...
        assert summary.packets_fast > 0
        # ...and once the controller shapes the send rate, every later
        # train falls back under the open blackout.
        assert dict(summary.fallback_reasons).get(REASON_BLACKOUT, 0) > 0


@pytest.mark.usefixtures("pool_cpus")
class TestParallelDeterminism:
    """jobs=2 with the fast path matches the sequential sweep."""

    def test_study_surfaces_identical(self):
        config = FlowLevelConfig()
        sequential = run_study(seed=31, duration_scale=SCALE,
                               fast_path=config)
        parallel = run_study(seed=31, duration_scale=SCALE,
                             fast_path=config, jobs=2)
        assert parallel.execution == "parallel jobs=2"
        assert study_surface(parallel) == study_surface(sequential)


class TestFaultScenarioWindows:
    """A fault scenario meeting the fast path registers its windows."""

    @staticmethod
    def _armed_windows(*events):
        sim = Simulator(seed=3, fast_path=FlowLevelConfig())
        FaultController(sim, FaultScenario("custom", events=events),
                        reference_duration=10.0).arm()
        return sim.fast_path._blackouts

    def test_restore_closes_the_window(self):
        windows = self._armed_windows(
            FaultEvent(at_frac=0.2, action=SET_BANDWIDTH,
                       params=(("bandwidth_bps", 200_000.0),)),
            FaultEvent(at_frac=0.6, action=SET_BANDWIDTH,
                       params=(("restore", True),)))
        assert windows == [(2.0, 6.0)]

    def test_missing_restore_leaves_the_window_open(self):
        windows = self._armed_windows(
            FaultEvent(at_frac=0.3, action=SET_DELAY,
                       params=(("delay", 0.05),)))
        assert windows == [(3.0, float("inf"))]

    @pytest.mark.parametrize("name", ["link-flap", "degrade", "burst-loss",
                                      "congestion-surge"])
    def test_faulted_sweep_falls_back_inside_windows(self, name):
        library = build_table1_library(duration_scale=0.12).only_set(3)
        validator = RunValidator(raise_on_violation=False)
        study = run_study(library=library, seed=424, duration_scale=0.12,
                          scenario=build_scenario(name, 424),
                          validate=validator, fast_path=FlowLevelConfig())
        assert validator.violations == []
        blackouts = sum(dict(run.fastpath.fallback_reasons)
                        .get(REASON_BLACKOUT, 0) for run in study.runs)
        assert blackouts > 0
