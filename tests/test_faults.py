"""Fault injection & recovery: scenarios, robustness behavior, CLI.

The contract under test has three parts.  *Determinism*: a scenario is
pure data derived from the seed, so the same (seed, scenario) must
reproduce byte-identical telemetry sequentially and under ``jobs=2``,
and a no-scenario run must carry zero fault machinery.  *Behavior*: the
canonical link-flap must demonstrably trigger route re-convergence,
player rebuffering with recovery, and a quality downshift, while the
control plane survives on retransmissions.  *Surfaces*: the recovery
report and the ``repro faults`` CLI expose all of it.
"""

import dataclasses
import hashlib
import json
import pickle

import pytest

from repro.errors import ReproError
from repro.experiments.datasets import build_table1_library
from repro.experiments.runner import (
    StudyResults,
    run_pair_experiment,
    run_study,
    study_conditions,
)
from repro.faults import (
    FaultEvent,
    FaultScenario,
    build_scenario,
    recovery_report,
    scenario_names,
)
from repro.telemetry import MemorySink, Telemetry
from repro.telemetry.events import (
    FAULT_INJECTED,
    LINK_DOWN,
    LINK_UP,
    ROUTE_RECONVERGED,
)
from repro.telemetry.sinks import encode_event
from repro.validate.differential import study_surface

SEED = 2002


def one_set_library(set_number, duration_scale=0.03):
    return build_table1_library(
        duration_scale=duration_scale).only_set(set_number)


def traced_pair_run(scenario, duration_scale=0.25, seed=SEED):
    """One instrumented pair run; returns (result, events)."""
    telemetry = Telemetry(sinks=[MemorySink(capacity=None)])
    library = build_table1_library(duration_scale=duration_scale)
    clip_set, pair = library.all_pairs()[0]
    conditions = study_conditions(seed, 0)
    result = run_pair_experiment(clip_set, pair, seed=seed,
                                 conditions=conditions,
                                 telemetry=telemetry, scenario=scenario)
    return result, telemetry.memory_events()


class TestScenarioData:
    def test_known_names(self):
        assert scenario_names() == ("burst-loss", "congestion-surge",
                                    "degrade", "link-flap", "server-crash",
                                    "server-pause")

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(ReproError, match="link-flap"):
            build_scenario("link-flop", SEED)

    def test_same_seed_same_schedule(self):
        for name in scenario_names():
            assert build_scenario(name, 7) == build_scenario(name, 7)
            assert (build_scenario(name, 7).fingerprint()
                    == build_scenario(name, 7).fingerprint())

    def test_seed_changes_schedule(self):
        assert (build_scenario("link-flap", 1).fingerprint()
                != build_scenario("link-flap", 2).fingerprint())

    def test_names_fingerprint_distinctly(self):
        prints = {build_scenario(name, SEED).fingerprint()
                  for name in scenario_names()}
        assert len(prints) == len(scenario_names())

    def test_scenarios_pickle_roundtrip(self):
        for name in scenario_names():
            scenario = build_scenario(name, SEED)
            clone = pickle.loads(pickle.dumps(scenario))
            assert clone == scenario
            assert clone.fingerprint() == scenario.fingerprint()

    def test_event_validation(self):
        with pytest.raises(ReproError):
            FaultEvent(at_frac=-0.1, action="link_down")
        with pytest.raises(ReproError):
            FaultEvent(at_frac=0.5, action="explode")


class TestLinkFlapRecovery:
    """The canonical scenario exercises every robustness layer at once."""

    @pytest.fixture(scope="class")
    def flap(self):
        scenario = build_scenario("link-flap", SEED)
        result, events = traced_pair_run(scenario)
        report = recovery_report(events, scenario=scenario.name)
        return result, events, report

    def test_faults_injected_in_order(self, flap):
        _, events, report = flap
        assert [action for _, action, _ in report.faults] == [
            "link_down", "link_up"]
        injected = [e for e in events if e.type == FAULT_INJECTED]
        assert len(injected) == 2

    def test_link_events_emitted(self, flap):
        _, events, _ = flap
        assert any(e.type == LINK_DOWN for e in events)
        assert any(e.type == LINK_UP for e in events)

    def test_routing_reconverges_after_each_transition(self, flap):
        _, events, report = flap
        assert len(report.reconvergence_times) == 2
        for delta in report.reconvergence_times:
            assert delta == pytest.approx(0.5)
        assert sum(1 for e in events
                   if e.type == ROUTE_RECONVERGED) == 2

    def test_player_rebuffers_and_recovers(self, flap):
        _, _, report = flap
        assert report.time_to_first_rebuffer is not None
        assert report.time_to_first_rebuffer > 0
        assert report.recovered_episodes
        episode = report.recovered_episodes[0]
        assert episode.duration > 0

    def test_quality_downshifts_then_recovers(self, flap):
        _, _, report = flap
        assert report.downshifts >= 1
        assert report.upshifts >= 1

    def test_control_plane_survives_on_retransmissions(self, flap):
        _, _, report = flap
        assert report.tcp_retransmits > 0
        assert report.tcp_aborts == 0
        assert report.keepalive_misses > 0
        assert report.sessions_lost == 0

    def test_streams_end_deterministically(self, flap):
        result, _, _ = flap
        assert result.real_stats.eos_at is not None
        assert result.wmp_stats.eos_at is not None

    def test_report_renders_recovery_times(self, flap):
        _, _, report = flap
        text = report.render()
        assert "fault scenario: link-flap" in text
        assert "route re-convergence" in text
        assert "recovered in" in text


class TestDeterminism:
    def test_same_seed_scenario_byte_identical(self):
        scenario = build_scenario("link-flap", SEED)
        first_result, first_events = traced_pair_run(
            scenario, duration_scale=0.06)
        second_result, second_events = traced_pair_run(
            scenario, duration_scale=0.06)
        assert ([encode_event(e) for e in first_events]
                == [encode_event(e) for e in second_events])
        assert (first_result.real_stats.eos_at
                == second_result.real_stats.eos_at)
        assert (first_result.wmp_stats.eos_at
                == second_result.wmp_stats.eos_at)
        # Packet uids are a process-global diagnostic counter; every
        # simulation-derived field must match exactly.
        def normalized(records):
            return [dataclasses.replace(r, uid=0) for r in records]

        assert (normalized(first_result.trace.records)
                == normalized(second_result.trace.records))

    def test_jobs2_matches_sequential_under_faults(self):
        scenario = build_scenario("link-flap", SEED)
        library = one_set_library(1)

        def traced(jobs):
            telemetry = Telemetry(sinks=[MemorySink(capacity=None)])
            # min_parallel_runs=0 keeps jobs=2 on the process pool even
            # for this two-run library (no sequential auto-downgrade).
            run_study(library=library, seed=SEED, telemetry=telemetry,
                      jobs=jobs, scenario=scenario, min_parallel_runs=0)
            return [encode_event(e) for e in telemetry.memory_events()]

        assert traced(2) == traced(1)

    def test_no_scenario_run_carries_no_fault_machinery(self):
        result, events = traced_pair_run(None, duration_scale=0.06)
        fault_types = {FAULT_INJECTED, LINK_DOWN, LINK_UP,
                       ROUTE_RECONVERGED, "tcp_retransmit", "tcp_abort",
                       "keepalive_miss", "session_lost", "player_stalled",
                       "quality_downshift", "quality_upshift",
                       "eos_timeout", "no_route_drop"}
        assert not [e for e in events if e.type in fault_types]
        assert result.real_stats.eos_at is not None


class TestEosLossFallback:
    """Satellite: losing the EOS datagram must not end playback silently."""

    def test_dropped_eos_finalizes_deterministically(self):
        from repro.media.clip import Clip, ClipEncoding, PlayerFamily
        from repro.netsim.engine import Simulator
        from repro.netsim.topology import build_path_topology
        from repro.players.mediatracker import MediaTracker
        from repro.servers.wms import WindowsMediaServer
        from repro.telemetry.events import EOS_TIMEOUT

        telemetry = Telemetry(sinks=[MemorySink(capacity=None)])
        sim = Simulator(seed=99, telemetry=telemetry)
        path = build_path_topology(sim, hop_count=5, rtt=0.020)
        clip = Clip(title="content", genre="Sports", duration=8.0,
                    encoding=ClipEncoding(family=PlayerFamily.WMP,
                                          encoded_kbps=109.0,
                                          advertised_kbps=109.0))
        server = WindowsMediaServer(path.servers[0])
        server.add_clip(clip)
        player = MediaTracker(path.client, path.servers[0].address)
        player.play("content")
        original = player._on_media
        dropped = []

        def drop_eos(datagram):
            if datagram.payload.kind == "media-eos":
                dropped.append(datagram)
                return
            original(datagram)

        player._on_media = drop_eos
        sim.run(until=120.0)
        assert dropped, "the run never produced an EOS datagram to drop"
        assert not player.done
        last_media = player._last_media_at
        assert last_media is not None

        stats = player.finalize()
        assert player.done
        assert stats.eos_at == last_media  # a simulation quantity
        timeouts = [e for e in telemetry.memory_events()
                    if e.type == EOS_TIMEOUT]
        assert len(timeouts) == 1
        fields = timeouts[0].field_dict()
        assert fields["player"] == "wmp"
        assert fields["stop_time"] == pytest.approx(last_media)
        # Idempotent: finalizing again neither re-emits nor re-ends.
        player.finalize()
        assert len([e for e in telemetry.memory_events()
                    if e.type == EOS_TIMEOUT]) == 1


class TestFaultsCli:
    def test_list_prints_scenarios(self, capsys):
        from repro.cli import main

        assert main(["faults", "--list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_unknown_scenario_nonzero_exit(self, capsys):
        from repro.cli import main

        assert main(["faults", "definitely-not-a-scenario"]) == 2
        err = capsys.readouterr().err
        assert "unknown fault scenario" in err
        assert "link-flap" in err

    def test_bad_scale_nonzero_exit(self, capsys):
        from repro.cli import main

        assert main(["faults", "link-flap", "--scale", "-1"]) == 2
        assert "--scale" in capsys.readouterr().err

    def test_runs_scenario_and_prints_report(self, capsys):
        from repro.cli import main

        assert main(["faults", "link-flap", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "fault scenario: link-flap" in out
        assert "faults injected: 2" in out


class TestAtFracBoundaries:
    """Satellite: 0.0 and 1.0 are legal firing points (inclusive
    bounds), fire exactly once regardless of ``duration_scale``, and
    stay byte-deterministic under ``jobs=2``."""

    def boundary_scenario(self):
        return FaultScenario(
            name="boundary",
            description="a loss window spanning the entire clip",
            events=(
                FaultEvent(at_frac=0.0, action="burst_loss_on",
                           target="middle",
                           params=(("loss_bad", 0.3), ("p_bad_good", 0.4),
                                   ("p_good_bad", 0.05))),
                FaultEvent(at_frac=1.0, action="burst_loss_off",
                           target="middle"),
            ))

    def test_boundary_fractions_accepted(self):
        assert FaultEvent(at_frac=0.0, action="link_down").at_frac == 0.0
        assert FaultEvent(at_frac=1.0, action="link_up").at_frac == 1.0

    @pytest.mark.parametrize("bad", [1.0000001, 2.0, -0.0001,
                                     float("inf"), float("-inf"),
                                     float("nan")])
    def test_out_of_range_fractions_rejected(self, bad):
        with pytest.raises(ReproError, match="at_frac"):
            FaultEvent(at_frac=bad, action="link_down")

    @pytest.mark.parametrize("scale", [0.06, 0.25])
    def test_boundary_events_fire_exactly_once(self, scale):
        _, events = traced_pair_run(self.boundary_scenario(),
                                    duration_scale=scale)
        injected = [e for e in events if e.type == FAULT_INJECTED]
        fired = sorted(str(e.field_dict().get("action")) for e in injected)
        assert fired == ["burst_loss_off", "burst_loss_on"]

    def test_boundary_scenario_jobs2_matches_sequential(self):
        library = one_set_library(1)
        scenario = self.boundary_scenario()

        def traced(jobs):
            telemetry = Telemetry(sinks=[MemorySink(capacity=None)])
            run_study(library=library, seed=SEED, telemetry=telemetry,
                      jobs=jobs, scenario=scenario, min_parallel_runs=0)
            return [encode_event(e) for e in telemetry.memory_events()]

        assert traced(2) == traced(1)


#: ``study_surface`` digests (sha256 of the sorted-key JSON) of pair
#: runs 0, 5 and 9 at scale 0.1 with the middle link's jitter off,
#: recorded while every link serialized with two events per packet.
#: With no jitter every link of the path runs the one-event
#: transmitter, and these are the only runs whose faults mutate such a
#: link: a study faults the jittered middle link.
ZERO_JITTER_SURFACES = {
    None: "4dd56d6dfe6ed99d6c685dd4e121ffe85f582e1a95e4267f741da39f1aa253ca",
    "burst-loss":
        "567b4a0a79347d1f9118791babe35054874a7bb3f17d967076663ce231875bd7",
    "congestion-surge":
        "564684cacbc5d74c6379db251207334988d2a3da4b06737e36e0f14f137b29d2",
    "degrade":
        "6dde6dc19d07f69571acb5b5ad7c9e690b9ea2f47beac4f43f3672c5a8c20cc1",
    "link-flap":
        "2138e83f92b18f5056ac856735d1e906fba61b0475d08fa3bfccad46f4bfd354",
    "server-crash":
        "a87c5b5f73ed44e81c7c6e84386a25af34b35ba01bbd1a90429ef2c920cc72bb",
    "server-pause":
        "b08edcb58cb4412916f92cbeca73ad1a56c199a7dfc80b7c2042013a92a9d245",
}


class TestZeroJitterFaultRuns:
    """Faults on links without jitter keep the pinned output; ``degrade``
    changes the delay while a packet is on the wire."""

    @pytest.mark.parametrize("name", sorted(ZERO_JITTER_SURFACES, key=str),
                             ids=str)
    def test_surfaces_match_pins(self, name):
        pairs = build_table1_library(duration_scale=0.1).all_pairs()
        scenario = None if name is None else build_scenario(name, SEED)
        runs = []
        for index in (0, 5, 9):
            clip_set, pair = pairs[index]
            conditions = dataclasses.replace(study_conditions(SEED, index),
                                             jitter_std=0.0)
            runs.append(run_pair_experiment(
                clip_set, pair, seed=SEED + index, conditions=conditions,
                scenario=scenario))
        surfaces = study_surface(StudyResults(runs=runs))
        digest = hashlib.sha256(
            json.dumps(surfaces, sort_keys=True).encode()).hexdigest()
        assert digest == ZERO_JITTER_SURFACES[name]

    def test_every_named_scenario_is_pinned(self):
        assert set(ZERO_JITTER_SURFACES) == {None, *scenario_names()}
