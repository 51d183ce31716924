"""The congestion-control subsystem: controllers, configs, studies.

Unit-level: the three controllers are pure state machines, so their
responses to synthetic ack/loss/delay signals are asserted directly.
Study-level: the null controller must be *byte-identical* to a no-cc
run (not merely equivalent), and armed controllers must stay
deterministic across the sequential and parallel execution paths.
"""

import pickle

import pytest

from repro.cc.aimd import (
    INITIAL_CWND_BYTES,
    MSS_BYTES,
    AimdCongestionControl,
)
from repro.cc.base import (
    CC_MAX_RATE_BPS,
    CC_MIN_RATE_BPS,
    CcConfig,
    cc_descriptions,
    cc_names,
)
from repro.cc.gcc import (
    DECREASE_FACTOR,
    OVERUSE_THRESHOLD,
    DelayGradientCongestionControl,
)
from repro.cc.null import NullCongestionControl
from repro.errors import ReproError
from repro.experiments.datasets import build_table1_library
from repro.experiments.runner import PARALLEL_MIN_RUNS, run_study
from repro.telemetry import MemorySink, Telemetry
from repro.telemetry.events import CC_STATE
from repro.validate.differential import _fresh_telemetry, study_surface

SEED = 424
SCALE = 0.06


def one_set_library(set_number=3, duration_scale=SCALE):
    return build_table1_library(
        duration_scale=duration_scale).only_set(set_number)


class TestAimdController:
    def test_silent_until_first_delay_sample(self):
        cc = AimdCongestionControl()
        cc.on_ack(1.0, 6000)
        assert cc.pacing_rate_bps(1.0) is None
        cc.on_rtt_sample(1.5, 0.100)
        assert cc.pacing_rate_bps(1.5) is not None

    def test_slow_start_grows_by_acked_bytes(self):
        cc = AimdCongestionControl()
        before = cc.cwnd_bytes
        cc.on_ack(1.0, 3000)
        assert cc.cwnd_bytes == before + 3000

    def test_slow_start_caps_at_ssthresh(self):
        cc = AimdCongestionControl(ssthresh=8 * MSS_BYTES)
        cc.on_ack(1.0, 10 ** 6)
        assert cc.cwnd_bytes == 8 * MSS_BYTES

    def test_congestion_avoidance_is_additive(self):
        cc = AimdCongestionControl(initial_cwnd=10 * MSS_BYTES,
                                   ssthresh=10 * MSS_BYTES)
        cc.on_ack(1.0, int(10 * MSS_BYTES))
        # One full window acked: cwnd grows by about one segment.
        assert cc.cwnd_bytes == pytest.approx(11 * MSS_BYTES)

    def test_loss_halves_the_window(self):
        cc = AimdCongestionControl(initial_cwnd=20 * MSS_BYTES,
                                   ssthresh=10 * MSS_BYTES)
        cc.on_loss(1.0, 3)
        assert cc.cwnd_bytes == 10 * MSS_BYTES
        cc.on_loss(2.0, 1)
        assert cc.cwnd_bytes == 5 * MSS_BYTES

    def test_rate_is_cwnd_over_srtt(self):
        cc = AimdCongestionControl()
        cc.on_rtt_sample(1.0, 0.200)
        assert cc.pacing_rate_bps(1.0) == pytest.approx(
            INITIAL_CWND_BYTES * 8.0 / 0.200)

    def test_rate_respects_the_global_envelope(self):
        cc = AimdCongestionControl(initial_cwnd=10 ** 12,
                                   ssthresh=10 ** 12)
        cc.on_rtt_sample(1.0, 0.001)
        assert cc.pacing_rate_bps(1.0) == CC_MAX_RATE_BPS
        tiny = AimdCongestionControl(initial_cwnd=10.0)
        tiny.on_rtt_sample(1.0, 10.0)
        assert tiny.pacing_rate_bps(1.0) == CC_MIN_RATE_BPS

    def test_ignores_degenerate_signals(self):
        cc = AimdCongestionControl()
        before = cc.cwnd_bytes
        cc.on_ack(1.0, 0)
        cc.on_loss(1.0, 0)
        cc.on_rtt_sample(1.0, -0.5)
        assert cc.cwnd_bytes == before
        assert cc.pacing_rate_bps(1.0) is None


class TestDelayGradientController:
    def test_silent_until_two_delay_samples(self):
        cc = DelayGradientCongestionControl()
        assert cc.pacing_rate_bps(0.0) is None
        cc.on_rtt_sample(1.0, 0.100)
        assert cc.pacing_rate_bps(1.0) is None
        cc.on_rtt_sample(2.0, 0.100)
        assert cc.pacing_rate_bps(2.0) is not None

    def test_flat_gradient_probes_upward(self):
        cc = DelayGradientCongestionControl(start_rate_bps=100_000.0)
        cc.on_rtt_sample(1.0, 0.100)
        cc.on_rtt_sample(2.0, 0.100)
        assert cc.pacing_rate_bps(2.0) > 100_000.0

    def test_rising_delay_backs_off(self):
        cc = DelayGradientCongestionControl(start_rate_bps=100_000.0)
        cc.on_rtt_sample(1.0, 0.100)
        # A delay jump far past the overuse threshold.
        cc.on_rtt_sample(2.0, 0.100 + 100 * OVERUSE_THRESHOLD)
        assert cc.pacing_rate_bps(2.0) < 100_000.0

    def test_loss_backs_off_to_measured_fraction(self):
        cc = DelayGradientCongestionControl(start_rate_bps=500_000.0)
        cc.on_ack(1.0, 10_000)
        cc.on_ack(2.0, 10_000)  # measured: 80 Kbps over one second
        cc.on_loss(2.5, 2)
        assert cc.pacing_rate_bps(2.5) == pytest.approx(
            max(CC_MIN_RATE_BPS, DECREASE_FACTOR * 80_000.0))


class TestNullController:
    def test_everything_is_a_no_op(self):
        cc = NullCongestionControl()
        cc.on_ack(1.0, 5000)
        cc.on_loss(1.0, 5)
        cc.on_rtt_sample(1.0, 0.2)
        assert cc.pacing_rate_bps(1.0) is None
        assert cc.cwnd_bytes == 0.0


class TestCcConfig:
    def test_registry_names_and_descriptions(self):
        assert cc_names() == ("aimd", "gcc", "null")
        assert set(cc_descriptions()) == set(cc_names())

    def test_unknown_kind_raises(self):
        with pytest.raises(ReproError, match="unknown congestion"):
            CcConfig(kind="vegas")

    def test_nonpositive_interval_raises(self):
        with pytest.raises(ReproError, match="feedback_interval"):
            CcConfig(kind="aimd", feedback_interval=0.0)

    def test_is_null(self):
        assert CcConfig(kind="null").is_null
        assert not CcConfig(kind="aimd").is_null

    def test_fingerprint_is_stable_and_parameter_sensitive(self):
        base = CcConfig(kind="aimd")
        assert base.fingerprint() == CcConfig(kind="aimd").fingerprint()
        assert base.fingerprint().startswith("cc-aimd:")
        assert base.fingerprint() != CcConfig(kind="gcc").fingerprint()
        assert base.fingerprint() != CcConfig(
            kind="aimd", feedback_interval=1.0).fingerprint()
        assert base.fingerprint() != CcConfig(
            kind="aimd",
            params=(("ssthresh", 32 * MSS_BYTES),)).fingerprint()

    def test_pickle_round_trip(self):
        config = CcConfig(kind="gcc", feedback_interval=0.25,
                          params=(("start_rate_bps", 200_000.0),))
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.fingerprint() == config.fingerprint()

    def test_build_applies_params(self):
        config = CcConfig(kind="aimd",
                          params=(("initial_cwnd", 9 * MSS_BYTES),))
        controller = config.build()
        assert isinstance(controller, AimdCongestionControl)
        assert controller.cwnd_bytes == 9 * MSS_BYTES
        # Each session gets a fresh state machine.
        assert config.build() is not controller


class TestCcStudies:
    def test_null_controller_is_byte_identical_to_no_cc(self):
        surfaces = {}
        for label, cc in (("plain", None), ("null", CcConfig(kind="null"))):
            telemetry = _fresh_telemetry()
            study = run_study(library=one_set_library(), seed=SEED,
                              telemetry=telemetry, cc=cc)
            surfaces[label] = study_surface(study, telemetry)
        assert surfaces["plain"] == surfaces["null"]

    @pytest.mark.parametrize("kind", ["aimd", "gcc"])
    def test_armed_controller_changes_the_surface(self, kind):
        surfaces = {}
        for label, cc in (("plain", None), (kind, CcConfig(kind=kind))):
            study = run_study(library=one_set_library(), seed=SEED,
                              loss_probability=0.02, cc=cc)
            surfaces[label] = study_surface(study)
        assert surfaces["plain"] != surfaces[kind]

    @pytest.mark.parametrize("kind", ["aimd", "gcc"])
    def test_parallel_matches_sequential(self, kind):
        def surface(jobs):
            telemetry = _fresh_telemetry()
            study = run_study(library=one_set_library(), seed=SEED,
                              loss_probability=0.02, telemetry=telemetry,
                              jobs=jobs, cc=CcConfig(kind=kind),
                              min_parallel_runs=0)
            return study_surface(study, telemetry)

        assert surface(2) == surface(1)

    def test_armed_run_emits_cc_state_events(self):
        telemetry = Telemetry(sinks=[MemorySink(capacity=None)])
        run_study(library=one_set_library(), seed=SEED,
                  telemetry=telemetry, cc=CcConfig(kind="aimd"))
        events = [e for e in telemetry.memory_events()
                  if e.type == CC_STATE]
        assert events
        for event in events:
            record = event.field_dict()
            assert record["controller"] == "aimd"
            assert record["family"] in ("real", "wmp")
            if record["rate_bps"] >= 0:
                assert (CC_MIN_RATE_BPS <= record["rate_bps"]
                        <= CC_MAX_RATE_BPS)

    def test_null_run_emits_no_cc_state_events(self):
        telemetry = Telemetry(sinks=[MemorySink(capacity=None)])
        run_study(library=one_set_library(), seed=SEED,
                  telemetry=telemetry, cc=CcConfig(kind="null"))
        assert not [e for e in telemetry.memory_events()
                    if e.type == CC_STATE]


@pytest.mark.usefixtures("pool_cpus")
class TestParallelAutoDowngrade:
    def test_small_sweep_downgrades_and_records_the_decision(self):
        library = one_set_library()  # 2 pair runs < PARALLEL_MIN_RUNS
        study = run_study(library=library, seed=SEED, jobs=2)
        assert "auto-downgraded from jobs=2" in study.execution
        assert f"2 runs < {PARALLEL_MIN_RUNS}" in study.execution

    def test_forcing_the_pool_skips_the_downgrade(self):
        study = run_study(library=one_set_library(), seed=SEED, jobs=2,
                          min_parallel_runs=0)
        assert study.execution == "parallel jobs=2"

    def test_sequential_request_stays_sequential(self):
        study = run_study(library=one_set_library(), seed=SEED, jobs=1)
        assert study.execution == "sequential"

    def test_downgraded_run_matches_sequential(self):
        def surface(jobs):
            study = run_study(library=one_set_library(), seed=SEED,
                              jobs=jobs)
            return study_surface(study)

        assert surface(2) == surface(1)
