"""The ABR transport: ladder config, rung selection, full studies.

The hysteresis contract — throughput picks the rung, the buffer gates
upshifts, the hold timer stops oscillation — is checked both at the
unit level (synthetic :func:`choose_rung` sequences) and end to end
(a steady degraded link settles instead of flapping between rungs,
and the switch stream is identical under parallel execution).
"""

import pickle

import pytest

from repro.cc.abr import DEFAULT_RUNGS, AbrConfig, choose_rung
from repro.errors import ReproError
from repro.experiments.datasets import build_table1_library
from repro.experiments.runner import run_study
from repro.telemetry import MemorySink, Telemetry
from repro.telemetry.events import ABR_SEGMENT, ABR_SWITCH
from repro.validate import RunValidator
from repro.validate.differential import _fresh_telemetry, study_surface

SEED = 424

#: Ladder knobs scaled down to the short test clips: one-second
#: segments and a low upshift gate so the selection loop actually
#: exercises switches within a fraction-scale run.
FAST_LADDER = AbrConfig(segment_seconds=1.0, low_water=0.5,
                        high_water=2.0, hold_seconds=1.0)


def one_set_library(set_number=3, duration_scale=0.12):
    return build_table1_library(
        duration_scale=duration_scale).only_set(set_number)


class TestAbrConfig:
    @pytest.mark.parametrize("kwargs,needle", [
        ({"segment_seconds": 0.0}, "segment_seconds"),
        ({"rungs": ()}, "ladder"),
        ({"rungs": (0.5, 1.2)}, "fractions"),
        ({"rungs": (0.8, 0.3)}, "ascending"),
        ({"download_factor": 1.0}, "download_factor"),
        ({"safety": 0.0}, "safety"),
        ({"low_water": 5.0, "high_water": 4.0}, "low_water"),
    ])
    def test_invalid_knobs_raise(self, kwargs, needle):
        with pytest.raises(ReproError, match=needle):
            AbrConfig(**kwargs)

    def test_fingerprint_is_stable_and_knob_sensitive(self):
        assert AbrConfig().fingerprint() == AbrConfig().fingerprint()
        assert AbrConfig().fingerprint().startswith("abr:")
        assert (AbrConfig().fingerprint()
                != AbrConfig(segment_seconds=4.0).fingerprint())
        assert (AbrConfig().fingerprint()
                != AbrConfig(rungs=(0.5, 1.0)).fingerprint())

    def test_pickle_round_trip(self):
        clone = pickle.loads(pickle.dumps(FAST_LADDER))
        assert clone == FAST_LADDER
        assert clone.fingerprint() == FAST_LADDER.fingerprint()


class TestChooseRung:
    """Synthetic selection sequences; native rate 100 Kbps."""

    NATIVE = 100_000.0

    def pick(self, current, throughput, buffer_seconds=10.0,
             held=10.0, config=None):
        return choose_rung(config or AbrConfig(), current, throughput,
                           self.NATIVE, buffer_seconds, held)

    def test_no_measurement_holds_the_current_rung(self):
        assert self.pick(2, None) == 2

    def test_unsustainable_rung_is_abandoned_immediately(self):
        # 40 Kbps sustains only rung 0 (0.3) of the default ladder.
        assert self.pick(4, 40_000.0, held=0.0) == 0

    def test_low_buffer_forces_a_downshift(self):
        # Throughput sustains rung 2, but the buffer is nearly dry.
        assert self.pick(2, 80_000.0, buffer_seconds=0.5) == 1
        assert self.pick(0, 80_000.0, buffer_seconds=0.5) == 0

    def test_upshift_climbs_one_rung_at_a_time(self):
        assert self.pick(0, 10 ** 9) == 1

    def test_upshift_requires_a_full_buffer(self):
        config = AbrConfig()
        assert self.pick(0, 10 ** 9,
                         buffer_seconds=config.high_water - 0.1) == 0

    def test_upshift_requires_the_hold_time(self):
        config = AbrConfig()
        assert self.pick(0, 10 ** 9,
                         held=config.hold_seconds - 0.1) == 0

    def test_steady_throughput_settles_without_oscillating(self):
        # 75 Kbps with the 0.85 safety margin budgets 63.75 Kbps: rung
        # 2 (0.6) is sustainable, rung 3 (0.8) is not.  However long
        # the steady state lasts, selection converges on 2 and stays.
        rung, history = 4, []
        for step in range(20):
            rung = self.pick(rung, 75_000.0, buffer_seconds=10.0,
                             held=100.0 + step)
            history.append(rung)
        assert history[0] == 2  # immediate drop to the sustainable rung
        assert set(history) == {2}  # and no flapping afterwards


class TestAbrStudies:
    def test_stats_schema_matches_the_2002_trackers(self):
        study = run_study(library=one_set_library(), seed=SEED,
                          abr=AbrConfig())
        for run in study:
            for stats in (run.real_stats, run.wmp_stats):
                assert stats.streaming_duration is not None
                assert stats.playout_started_at is not None
                assert stats.average_playback_kbps > 0
                assert stats.average_fps > 0
                assert 0 <= stats.frame_loss_percent <= 100

    def test_ladder_invariants_hold(self):
        validator = RunValidator(raise_on_violation=False)
        run_study(library=one_set_library(), seed=SEED,
                  abr=AbrConfig(), validate=validator)
        assert not validator.violations
        assert "ladder-conservation" in validator.report()

    def test_segments_stream_in_order(self):
        telemetry = Telemetry(sinks=[MemorySink(capacity=None)])
        run_study(library=one_set_library(), seed=SEED,
                  telemetry=telemetry, abr=AbrConfig())
        segments = [e.field_dict() for e in telemetry.memory_events()
                    if e.type == ABR_SEGMENT]
        assert segments
        by_flow = {}
        for record in segments:
            key = (record["run"], record["family"])
            by_flow.setdefault(key, []).append(record["segment"])
        for indices in by_flow.values():
            assert indices == list(range(len(indices)))

    def test_rungs_stay_inside_the_ladder(self):
        telemetry = Telemetry(sinks=[MemorySink(capacity=None)])
        run_study(library=one_set_library(duration_scale=0.25),
                  seed=SEED, telemetry=telemetry,
                  loss_probability=0.15, abr=FAST_LADDER)
        switches = [e.field_dict() for e in telemetry.memory_events()
                    if e.type == ABR_SWITCH]
        assert switches
        for record in switches:
            assert 0 <= record["to_rung"] < len(FAST_LADDER.rungs)
            assert record["to_rung"] != record["from_rung"]

    def test_steady_degraded_link_settles_without_oscillating(self):
        """Satellite: hysteresis under sustained degradation.

        Under 15% steady loss every flow that downshifts must settle
        there — an upshift *after* a downshift within one clip would
        be the downshift-upshift flapping the hold timer and buffer
        gate exist to prevent.
        """
        telemetry = Telemetry(sinks=[MemorySink(capacity=None)])
        run_study(library=one_set_library(duration_scale=0.25),
                  seed=SEED, telemetry=telemetry,
                  loss_probability=0.15, abr=FAST_LADDER)
        by_flow = {}
        for event in telemetry.memory_events():
            if event.type != ABR_SWITCH:
                continue
            record = event.field_dict()
            key = (record["run"], record["player"])
            by_flow.setdefault(key, []).append(
                (record["from_rung"], record["to_rung"]))
        assert by_flow
        downshifts = 0
        for moves in by_flow.values():
            seen_downshift = False
            for from_rung, to_rung in moves:
                if to_rung < from_rung:
                    seen_downshift = True
                    downshifts += 1
                else:
                    assert not seen_downshift, (
                        f"rung flapping: upshift after downshift "
                        f"in {moves}")
        assert downshifts > 0  # the link was degraded enough to bite

    @pytest.mark.parametrize("jobs", [2])
    def test_parallel_matches_sequential(self, jobs):
        """Satellite: the switch stream is deterministic across jobs."""
        def surface(jobs):
            telemetry = _fresh_telemetry()
            study = run_study(library=one_set_library(duration_scale=0.25),
                              seed=SEED, loss_probability=0.15,
                              telemetry=telemetry, jobs=jobs,
                              abr=FAST_LADDER, min_parallel_runs=0)
            switches = [(e.time, e.field_dict())
                        for e in telemetry.memory_events()
                        if e.type == ABR_SWITCH]
            return study_surface(study, telemetry), switches

        seq_surface, seq_switches = surface(1)
        par_surface, par_switches = surface(jobs)
        assert seq_switches  # the scenario actually switched rungs
        assert par_switches == seq_switches
        assert par_surface == seq_surface

    def test_default_ladder_tops_out_at_the_2002_encode(self):
        assert DEFAULT_RUNGS[-1] == 1.0
