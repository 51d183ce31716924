"""Loss repair: GOP model, FEC, NACK, scheduling, QoE — unit and end
to end.

The contract has four parts.  *Arithmetic*: XOR parity round-trips a
single loss, the GOP model prices frames by their reference chains,
and the scheduler spends budget most-valuable-bytes first.  *State*: a
sequence moves missing -> requested -> recovered | abandoned and never
backwards, with exponential NACK backoff.  *Opt-in*: ``repair=None``
runs carry zero repair machinery and a null config is behaviorally
identical to no config.  *End to end*: a burst-loss study with the
stack armed recovers at least half of its lost sequences before their
decode deadlines, the invariants hold, and the per-viewer QoE score is
bit-identical across sequential, parallel, and cache execution.
"""

import importlib.util
import json
import math
import pathlib

import pytest

from repro.errors import MediaError, ReproError
from repro.experiments.datasets import build_table1_library
from repro.experiments.runner import run_study
from repro.experiments.spec import RunSpec
from repro.faults import build_scenario, recovery_report
from repro.media.codec import SyntheticCodec
from repro.media.gop import annotate_gops, decode_deadline, frame_value_map
from repro.netsim.engine import Simulator
from repro.netsim.headers import PayloadMeta
from repro.repair import (
    FecGroupEncoder,
    FecMember,
    NackManager,
    NackRequest,
    ReceiverRepair,
    RepairCandidate,
    RepairConfig,
    recover_block,
    schedule_repairs,
    xor_parity,
)
from repro.telemetry import MemorySink, Telemetry
from repro.telemetry.events import (
    FEC_PARITY_SENT,
    NACK_SENT,
    QOE_SCORE,
    REPAIR_ABANDONED,
    REPAIR_RECOVERED,
    RETRANSMIT_SENT,
)
from repro.telemetry.streaming import StreamingSummary
from repro.validate.checker import RunValidator
from repro.validate.differential import run_differential, study_surface

SEED = 424

REPAIR_EVENTS = (FEC_PARITY_SENT, NACK_SENT, RETRANSMIT_SENT,
                 REPAIR_RECOVERED, REPAIR_ABANDONED)


def one_set_library(number=3, scale=0.04):
    return build_table1_library(duration_scale=scale).only_set(number)


def repair_study(scale=0.12, fault="burst-loss", config=None, jobs=1,
                 validate=None, stream=None):
    telemetry = Telemetry(sinks=[MemorySink(capacity=None)])
    scenario = build_scenario(fault, SEED) if fault else None
    study = run_study(library=one_set_library(3, scale), seed=SEED,
                      telemetry=telemetry, jobs=jobs,
                      min_parallel_runs=0, scenario=scenario,
                      repair=config or RepairConfig(),
                      validate=validate, stream=stream)
    return study, telemetry.memory_events()


# ----------------------------------------------------------------------
# GOP model
# ----------------------------------------------------------------------
class TestGopModel:
    def schedule(self):
        library = build_table1_library(duration_scale=0.05)
        clip = library.all_pairs()[0][1].real
        return SyntheticCodec().encode(clip)

    def test_every_frame_in_exactly_one_gop(self):
        schedule = self.schedule()
        gops = annotate_gops(schedule)
        numbers = [entry.number for gop in gops for entry in gop]
        assert numbers == [frame.number for frame in schedule]

    def test_reference_chain_walks_back_to_the_keyframe(self):
        for gop in annotate_gops(self.schedule()):
            for position, entry in enumerate(gop.frames):
                expected = tuple(e.number for e in gop.frames[:position])
                assert entry.references == expected
            assert gop.keyframe.references == ()

    def test_dependent_bytes_decrease_along_the_chain(self):
        for gop in annotate_gops(self.schedule()):
            values = [entry.dependent_bytes for entry in gop]
            assert values == sorted(values, reverse=True)
            assert gop.keyframe.dependent_bytes == gop.total_bytes

    def test_value_map_covers_schedule(self):
        schedule = self.schedule()
        values = frame_value_map(schedule)
        assert set(values) == {frame.number for frame in schedule}

    def test_deadline_none_before_playout(self):
        frame = next(iter(self.schedule()))
        assert decode_deadline(frame, None) is None
        deadline = decode_deadline(frame, 10.0, tolerance=0.25)
        assert deadline == 10.0 + frame.media_time + 0.25

    def test_negative_tolerance_rejected(self):
        frame = next(iter(self.schedule()))
        with pytest.raises(MediaError, match="tolerance"):
            decode_deadline(frame, 10.0, tolerance=-0.1)


# ----------------------------------------------------------------------
# XOR parity codec
# ----------------------------------------------------------------------
class TestXorParity:
    def test_round_trip_each_position(self):
        blocks = [b"alpha", b"bb", b"gamma-long", b""]
        parity = xor_parity(blocks)
        for lost in range(len(blocks)):
            survivors = [b for i, b in enumerate(blocks) if i != lost]
            rebuilt = recover_block(survivors, parity, len(blocks[lost]))
            assert rebuilt == blocks[lost]

    def test_empty_group_rejected(self):
        with pytest.raises(ReproError, match="zero blocks"):
            xor_parity([])

    def test_oversized_claim_rejected(self):
        parity = xor_parity([b"ab", b"cd"])
        with pytest.raises(ReproError, match="spans only"):
            recover_block([b"ab"], parity, 10)
        with pytest.raises(ReproError, match="nonnegative"):
            recover_block([b"ab"], parity, -1)

    def test_encoder_closes_full_groups(self):
        encoder = FecGroupEncoder(group_size=3)
        members = [FecMember(sequence=i, size_bytes=100 + i)
                   for i in range(7)]
        specs = [spec for member in members
                 if (spec := encoder.add(member)) is not None]
        assert [spec.sequences for spec in specs] == [(0, 1, 2), (3, 4, 5)]
        assert specs[0].parity_bytes == 102
        tail = encoder.flush()
        assert tail.sequences == (6,)
        assert encoder.flush() is None
        assert encoder.groups_emitted == 3

    def test_degenerate_group_size_rejected(self):
        with pytest.raises(ReproError, match=">= 2"):
            FecGroupEncoder(group_size=1)


# ----------------------------------------------------------------------
# NACK state machine
# ----------------------------------------------------------------------
def candidate(sequence, size=100, **kwargs):
    return RepairCandidate(sequence=sequence, size_bytes=size,
                           value_bytes=kwargs.pop("value_bytes", size),
                           **kwargs)


class TestNackManager:
    def test_missing_then_due_then_requested(self):
        manager = NackManager(max_retries=3, timeout=0.25)
        assert manager.note_missing(candidate(5), now=1.0)
        assert not manager.note_missing(candidate(5), now=1.0)
        assert [c.sequence for c in manager.due(1.0)] == [5]
        manager.on_requested(5, now=1.0)
        assert manager.due(1.0) == []
        assert [c.sequence for c in manager.due(1.25)] == [5]

    def test_backoff_doubles_per_attempt(self):
        manager = NackManager(max_retries=4, timeout=0.25)
        manager.note_missing(candidate(9), now=0.0)
        due_at = []
        now = 0.0
        for _ in range(3):
            now = manager.next_due_at()
            due_at.append(now)
            manager.on_requested(9, now)
        assert due_at == [0.0, 0.25, 0.75]  # +0.25, then +0.5

    def test_recovered_never_rerequested(self):
        manager = NackManager(max_retries=3, timeout=0.25)
        manager.note_missing(candidate(7), now=0.0)
        assert manager.on_recovered(7)
        assert not manager.on_recovered(7)  # duplicate repair refused
        assert not manager.note_missing(candidate(7), now=5.0)
        assert manager.due(1e9) == []
        assert manager.requests_after_repair == 0

    def test_recovery_wins_over_abandonment(self):
        manager = NackManager(max_retries=3, timeout=0.25)
        manager.note_missing(candidate(3), now=0.0)
        manager.abandon(3, "deadline")
        assert manager.abandoned == {3: "deadline"}
        assert manager.on_recovered(3)  # late repair still counts
        assert manager.abandoned == {}
        manager.abandon(3, "retries")  # cannot re-abandon a recovery
        assert manager.abandoned == {}

    def test_exact_metadata_upgrades_gap_estimate(self):
        manager = NackManager(max_retries=3, timeout=0.25)
        manager.note_missing(candidate(2, size=900, exact=False), now=0.0)
        manager.note_missing(candidate(2, size=512, exact=True), now=0.0)
        assert manager.due(0.0)[0].size_bytes == 512

    def test_constructor_validation(self):
        with pytest.raises(ReproError, match="max_retries"):
            NackManager(max_retries=-1, timeout=0.25)
        with pytest.raises(ReproError, match="timeout"):
            NackManager(max_retries=3, timeout=0.0)

    def test_request_wire_bytes(self):
        request = NackRequest(session_id=1, sequences=(1, 2, 3),
                              sent_at=0.0)
        assert request.wire_bytes == 24 + 3 * 4


# ----------------------------------------------------------------------
# Repair scheduler
# ----------------------------------------------------------------------
class TestScheduler:
    def test_most_valuable_bytes_first(self):
        keyframe = candidate(10, size=100, value_bytes=1000)
        tail = candidate(5, size=100, value_bytes=100)
        selected, expired = schedule_repairs([tail, keyframe], now=0.0,
                                             budget_bytes=10_000)
        assert [c.sequence for c in selected] == [10, 5]
        assert expired == []

    def test_expired_candidates_dropped_not_requested(self):
        stale = candidate(1, deadline=1.0)
        live = candidate(2, deadline=9.0)
        selected, expired = schedule_repairs([stale, live], now=5.0,
                                             budget_bytes=10_000)
        assert [c.sequence for c in selected] == [2]
        assert [c.sequence for c in expired] == [1]

    def test_budget_skips_but_keeps_pending(self):
        big = candidate(1, size=900, value_bytes=9000)
        small = candidate(2, size=100, value_bytes=50)
        selected, expired = schedule_repairs([big, small], now=0.0,
                                             budget_bytes=950)
        assert [c.sequence for c in selected] == [1]
        assert expired == []  # the small one waits for the next round

    def test_first_candidate_always_fits(self):
        huge = candidate(1, size=5000, value_bytes=5000)
        selected, _ = schedule_repairs([huge], now=0.0, budget_bytes=100)
        assert [c.sequence for c in selected] == [1]

    def test_deterministic_tiebreaks(self):
        a = candidate(4, size=100, value_bytes=100, deadline=2.0)
        b = candidate(3, size=100, value_bytes=100, deadline=2.0)
        selected, _ = schedule_repairs([a, b], now=0.0, budget_bytes=1000)
        assert [c.sequence for c in selected] == [3, 4]

    def test_validation(self):
        with pytest.raises(ReproError, match="budget"):
            schedule_repairs([], now=0.0, budget_bytes=0)
        with pytest.raises(ReproError, match="size"):
            candidate(1, size=0)


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------
class TestRepairConfig:
    def test_defaults_and_null(self):
        config = RepairConfig()
        assert not config.is_null
        assert RepairConfig(fec_group=0, nack=False).is_null
        assert not RepairConfig(fec_group=0).is_null  # NACK still armed

    def test_fingerprint_tracks_every_knob(self):
        base = RepairConfig()
        assert base.fingerprint() == RepairConfig().fingerprint()
        assert base.fingerprint().startswith("repair-xor:")
        others = (RepairConfig(fec_group=4), RepairConfig(nack=False),
                  RepairConfig(max_retries=1),
                  RepairConfig(nack_timeout=0.5),
                  RepairConfig(repair_budget_bytes=1024),
                  RepairConfig(request_budget_bytes=1024),
                  RepairConfig(deadline_slack=0.0))
        prints = {config.fingerprint() for config in others}
        assert len(prints) == len(others)
        assert base.fingerprint() not in prints

    def test_validation(self):
        with pytest.raises(ReproError, match="fec_group"):
            RepairConfig(fec_group=-1)
        with pytest.raises(ReproError, match="duplicates"):
            RepairConfig(fec_group=1)
        with pytest.raises(ReproError, match="nack_timeout"):
            RepairConfig(nack_timeout=0.0)
        with pytest.raises(ReproError, match="repair_budget"):
            RepairConfig(repair_budget_bytes=0)

    def test_picklable(self):
        import pickle

        config = RepairConfig(fec_group=4, nack_timeout=0.5)
        assert pickle.loads(pickle.dumps(config)) == config


# ----------------------------------------------------------------------
# Receiver parity decode (the zero-round-trip path, NACK disabled)
# ----------------------------------------------------------------------
def make_receiver(config, sim, nacks=None, playout_start=None):
    return ReceiverRepair(
        config=config, sim=sim, family="real", session_id=1,
        nominal_fps=15.0,
        send_nack=(nacks.append if nacks is not None else lambda r: None),
        playout_start=lambda: playout_start)


def parity_meta(members, group=0):
    return PayloadMeta(kind="fec-parity",
                       adu_sequence=members[-1].sequence,
                       fec_group=group, fec_members=tuple(members))


class TestReceiverParityDecode:
    def test_single_loss_rebuilt_from_parity(self):
        sim = Simulator()
        receiver = make_receiver(RepairConfig(nack=False), sim)
        members = [FecMember(sequence=i, size_bytes=200,
                             frame_numbers=(i,), media_time=i / 15.0)
                   for i in range(4)]
        for member in members:
            if member.sequence != 2:
                receiver.on_media(member.sequence, member.size_bytes)
        recoveries = receiver.on_parity(parity_meta(members), 200, now=1.0)
        assert [r.sequence for r in recoveries] == [2]
        assert recoveries[0].method == "parity"
        assert recoveries[0].before_deadline  # no playout start: no deadline
        assert receiver.recovered_parity == 1
        assert receiver.recovered_before_deadline == 1

    def test_double_loss_exceeds_parity(self):
        sim = Simulator()
        receiver = make_receiver(RepairConfig(nack=False), sim)
        members = [FecMember(sequence=i, size_bytes=200) for i in range(4)]
        receiver.on_media(0, 200)
        receiver.on_media(3, 200)
        assert receiver.on_parity(parity_meta(members), 200, now=1.0) == []
        assert receiver.recovered_parity == 0

    def test_double_loss_falls_back_to_nack(self):
        sim = Simulator()
        nacks = []
        receiver = make_receiver(RepairConfig(), sim, nacks=nacks)
        members = [FecMember(sequence=i, size_bytes=200) for i in range(4)]
        receiver.on_media(0, 200)
        receiver.on_media(3, 200)
        receiver.on_parity(parity_meta(members), 200, now=0.0)
        sim.run()
        # Never repaired, so the loop spends the first request plus
        # max_retries backed-off retries, then gives up.
        assert [request.sequences for request in nacks] == [(1, 2)] * 4
        assert [request.sent_at for request in nacks] == [
            0.0, 0.25, 0.75, 1.75]

    def test_retransmit_duplicate_counted_not_applied(self):
        sim = Simulator()
        receiver = make_receiver(RepairConfig(), sim)
        member = FecMember(sequence=5, size_bytes=200)
        rtx = PayloadMeta(kind="media-rtx", adu_sequence=5,
                          retransmit_of=5, fec_members=(member,))
        first = receiver.on_retransmit(rtx, 200, now=1.0)
        assert first is not None and first.method == "rtx"
        assert receiver.on_retransmit(rtx, 200, now=1.1) is None
        assert receiver.duplicate_rtx == 1
        assert receiver.recovered_rtx == 1

    def test_gap_ignored_when_nack_disabled(self):
        sim = Simulator()
        receiver = make_receiver(RepairConfig(nack=False), sim)
        receiver.on_gap(1, 3, next_media_time=0.5, now=0.0)
        assert receiver.nack.pending_sequences() == ()


# ----------------------------------------------------------------------
# End to end: burst loss with the stack armed
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def burst_repair():
    """One burst-loss study with repair, validated, fully instrumented."""
    validator = RunValidator()
    stream = StreamingSummary()
    study, events = repair_study(scale=0.12, validate=validator,
                                 stream=stream)
    return study, events, validator, stream


class TestRepairIntegration:
    def test_losses_occur_and_repairs_flow(self, burst_repair):
        study, events, _, _ = burst_repair
        assert sum(run.real_stats.packets_lost + run.wmp_stats.packets_lost
                   for run in study) > 0
        kinds = {event.type for event in events}
        assert FEC_PARITY_SENT in kinds
        assert NACK_SENT in kinds
        assert RETRANSMIT_SENT in kinds
        assert REPAIR_RECOVERED in kinds
        assert QOE_SCORE in kinds

    def test_majority_recovered_before_deadline(self, burst_repair):
        _, events, _, _ = burst_repair
        recovered = [event for event in events
                     if event.type == REPAIR_RECOVERED]
        abandoned = [event for event in events
                     if event.type == REPAIR_ABANDONED]
        settled = len(recovered) + len(abandoned)
        assert settled > 0
        in_time = sum(1 for event in recovered
                      if event.field_dict().get("before_deadline"))
        assert in_time / settled >= 0.5

    def test_player_stats_carry_recoveries(self, burst_repair):
        study, _, _, _ = burst_repair
        recovered = sum(run.real_stats.packets_recovered
                        + run.wmp_stats.packets_recovered
                        for run in study)
        assert recovered > 0
        for run in study:
            for stats in (run.real_stats, run.wmp_stats):
                assert stats.packets_recovered <= stats.packets_lost

    def test_invariants_hold(self, burst_repair):
        from repro.validate.checker import INVARIANT_NAMES

        study, _, validator, _ = burst_repair
        assert validator.violations == []
        assert validator.runs_checked == len(study)
        assert "fec-conservation" in INVARIANT_NAMES
        assert "repair-no-duplication" in INVARIANT_NAMES
        assert "fec-conservation" in validator.report()

    def test_streaming_rollup_exports_repair_section(self, burst_repair):
        study, _, _, stream = burst_repair
        section = stream.rollup.as_dict().get("repair")
        assert section is not None
        assert section["recovered_rtx"] + section["recovered_parity"] > 0
        assert section["repair_ratio"] >= 0.5
        qoe = section["qoe"]
        assert qoe["runs"] == 2 * len(study)
        assert 0.0 <= qoe["min"] <= qoe["mean"] <= qoe["max"] <= 100.0

    def test_turbulence_export_matches_schema(self, burst_repair):
        _, _, _, stream = burst_repair
        root = pathlib.Path(__file__).resolve().parents[1]
        script = root / "scripts" / "validate_spans_export.py"
        spec = importlib.util.spec_from_file_location("validator", script)
        validator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(validator)
        schema = json.loads(
            (root / "docs" / "schemas"
             / "turbulence_rollup.schema.json").read_text())
        document = json.loads(stream.to_json())["turbulence"]
        assert validator.validate(document, schema) == []
        assert "qoe" in document["repair"]

    def test_recovery_report_counts_repair_traffic(self, burst_repair):
        _, events, _, _ = burst_repair
        report = recovery_report(list(events), scenario="burst-loss")
        assert report.recovered_packets > 0
        assert report.nacks_sent > 0
        assert report.retransmits_sent > 0
        assert report.repair_ratio is not None
        assert report.repair_ratio >= 0.5
        assert "loss repair:" in report.render()

    def test_qoe_scores_sane(self, burst_repair):
        study, _, _, _ = burst_repair
        for run in study:
            for stats in (run.real_stats, run.wmp_stats):
                qoe = stats.qoe()
                assert 0.0 <= qoe.score <= 100.0
                assert 0.0 <= qoe.frame_delivery <= 1.0
                assert 0.0 <= qoe.repair_ratio <= 1.0
                assert not math.isnan(qoe.score)


class TestRepairOptIn:
    def test_unrepaired_run_carries_zero_repair_machinery(self):
        telemetry = Telemetry(sinks=[MemorySink(capacity=None)])
        study = run_study(library=one_set_library(), seed=SEED,
                          telemetry=telemetry, jobs=1)
        kinds = {event.type for event in telemetry.memory_events()}
        assert not kinds & set(REPAIR_EVENTS)
        stream = StreamingSummary()
        study2 = run_study(library=one_set_library(), seed=SEED, jobs=1,
                           stream=stream)
        assert "repair" not in stream.rollup.as_dict()
        assert len(study) == len(study2)

    def test_null_config_identical_to_none(self):
        telemetry_none = Telemetry(sinks=[MemorySink(capacity=None)])
        plain = run_study(library=one_set_library(), seed=SEED,
                          telemetry=telemetry_none, jobs=1)
        telemetry_null = Telemetry(sinks=[MemorySink(capacity=None)])
        nulled = run_study(library=one_set_library(), seed=SEED,
                           telemetry=telemetry_null, jobs=1,
                           repair=RepairConfig(fec_group=0, nack=False))
        assert (study_surface(plain, telemetry_none)
                == study_surface(nulled, telemetry_null))

    def test_qoe_defined_without_repair(self):
        study = run_study(library=one_set_library(), seed=SEED, jobs=1)
        for run in study:
            qoe = run.real_stats.qoe()
            assert qoe.repair_ratio == 1.0  # nothing lost, nothing owed
            assert qoe.score > 0.0


class TestRepairDeterminism:
    def test_all_execution_paths_agree_under_repair(self):
        report = run_differential(
            RunSpec(seed=SEED, duration_scale=0.12,
                    library=one_set_library(3, 0.12),
                    scenario=build_scenario("burst-loss", SEED),
                    repair=RepairConfig()), jobs=2)
        assert report.ok, report.summary()

    def test_qoe_bit_identical_sequential_vs_parallel(self):
        sequential, _ = repair_study(scale=0.12, jobs=1)
        parallel, _ = repair_study(scale=0.12, jobs=2)
        for left, right in zip(sequential, parallel):
            assert left.real_stats.qoe() == right.real_stats.qoe()
            assert left.wmp_stats.qoe() == right.wmp_stats.qoe()
