"""repro.validate tests: invariant checker, differential oracle, CLI."""

import math
from dataclasses import replace

import pytest

from repro.cli import main
from repro.errors import ExperimentError, ValidationError
from repro.experiments.datasets import build_table1_library
from repro.experiments.runner import run_spec, run_study
from repro.experiments.spec import RunSpec
from repro.netsim.addressing import IPAddress
from repro.netsim.engine import Simulator
from repro.netsim.flowlevel import FlowLevelConfig
from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.queues import DropTailQueue
from repro.netsim.topology import build_path_topology
from repro.telemetry import MemorySink, SpanRecorder, Telemetry
from repro.validate import (
    INVARIANT_NAMES,
    DifferentialReport,
    RunValidator,
    Violation,
    run_differential,
    study_surface,
)
from repro.validate.differential import _fresh_telemetry


SEED = 424
SCALE = 0.04


def one_set_library(number=3, scale=SCALE):
    return build_table1_library(duration_scale=scale).only_set(number)


class TestViolation:
    def test_str_renders_context(self):
        violation = Violation("queue-conservation", "enqueued 3 != 2",
                              (("run", "set1-l"), ("link", "a->b")))
        assert str(violation) == ("queue-conservation: enqueued 3 != 2 "
                                  "[run=set1-l, link=a->b]")
        assert violation.context_dict == {"run": "set1-l", "link": "a->b"}

    def test_str_without_context(self):
        assert str(Violation("clock-monotonic", "time ran backwards")) == \
            "clock-monotonic: time ran backwards"

    def test_validation_error_message(self):
        violations = [Violation("pacer-budget", f"ledger off by {i}")
                      for i in range(5)]
        error = ValidationError(violations)
        assert error.violations == violations
        assert "5 invariant violations" in str(error)
        assert "(+2 more)" in str(error)


class TestValidatedStudy:
    def test_clean_study_has_zero_violations(self):
        validator = RunValidator(raise_on_violation=False)
        telemetry = _fresh_telemetry()
        study = run_study(library=one_set_library(), seed=SEED,
                          telemetry=telemetry, jobs=1, validate=validator)
        assert len(study) == 2
        assert validator.violations == []
        assert validator.runs_checked == 2
        assert validator.checks_performed > 0

    def test_validation_does_not_perturb_the_simulation(self):
        # The acceptance bar: a validated run is byte-identical to a
        # plain run of the same seed — the checker only observes.
        plain_tel = _fresh_telemetry()
        plain = run_study(library=one_set_library(), seed=SEED,
                          telemetry=plain_tel, jobs=1)
        checked_tel = _fresh_telemetry()
        checked = run_study(library=one_set_library(), seed=SEED,
                            telemetry=checked_tel, jobs=1,
                            validate=RunValidator(raise_on_violation=False))
        assert (study_surface(plain, plain_tel)
                == study_surface(checked, checked_tel))

    def test_validate_with_parallel_jobs_is_rejected(self):
        with pytest.raises(ExperimentError, match="sequential"):
            run_study(library=one_set_library(), seed=SEED, jobs=2,
                      validate=RunValidator())

    def test_report_lists_every_invariant(self):
        validator = RunValidator(raise_on_violation=False)
        run_study(library=one_set_library(), seed=SEED, jobs=1,
                  validate=validator)
        report = validator.report()
        for name in INVARIANT_NAMES:
            assert name in report
        assert "0 violations" in report


class LeakyQueue(DropTailQueue):
    """A test double with an accounting bug: polls go uncounted."""

    def poll(self):
        packet = super().poll()
        if packet is not None:
            self.stats.dequeued -= 1
        return packet


class TestInjectedBug:
    def test_leaky_queue_is_caught_with_link_context(self):
        validator = RunValidator(raise_on_violation=False)
        sim = Simulator(seed=7, validate=validator)
        alpha = Host(sim, "alpha", IPAddress.parse("10.0.0.1"))
        beta = Host(sim, "beta", IPAddress.parse("10.0.0.2"))
        Link(sim, alpha, beta,
             queue_factory=lambda: LeakyQueue(64 * 1024))
        alpha.routing.set_default(beta)
        beta.routing.set_default(alpha)
        beta.udp.bind(5005)
        client = alpha.udp.bind_ephemeral()
        client.send(beta.address, 5005, 100)
        sim.run()

        found = validator.check_run(run="injected-bug")
        assert found, "the accounting bug went undetected"
        violation = found[0]
        assert violation.invariant == "queue-conservation"
        assert violation.context_dict["run"] == "injected-bug"
        assert violation.context_dict["link"] == "alpha->beta"
        assert "enqueued" in violation.message

    def test_raise_on_violation_raises(self):
        validator = RunValidator()  # raising is the default
        sim = Simulator(seed=7, validate=validator)
        alpha = Host(sim, "alpha", IPAddress.parse("10.0.0.1"))
        beta = Host(sim, "beta", IPAddress.parse("10.0.0.2"))
        Link(sim, alpha, beta,
             queue_factory=lambda: LeakyQueue(64 * 1024))
        alpha.routing.set_default(beta)
        beta.routing.set_default(alpha)
        beta.udp.bind(5005)
        alpha.udp.bind_ephemeral().send(beta.address, 5005, 100)
        sim.run()
        with pytest.raises(ValidationError, match="queue-conservation"):
            validator.check_run()

    def test_clean_manual_run_passes(self):
        validator = RunValidator()
        sim = Simulator(seed=7, validate=validator)
        alpha = Host(sim, "alpha", IPAddress.parse("10.0.0.1"))
        beta = Host(sim, "beta", IPAddress.parse("10.0.0.2"))
        Link(sim, alpha, beta)
        alpha.routing.set_default(beta)
        beta.routing.set_default(alpha)
        beta.udp.bind(5005)
        alpha.udp.bind_ephemeral().send(beta.address, 5005, 2000)
        sim.run()
        assert validator.check_run() == []

    def test_fastpath_ledger_one_ulp_off_is_caught(self):
        # fastpath-equivalence refolds every committed train through
        # train_schedule, the reference the director's fused walk
        # must match bit for bit; one ulp of drift has to fail it.
        validator = RunValidator(raise_on_violation=False)
        sim = Simulator(seed=7, validate=validator,
                        fast_path=FlowLevelConfig())
        path = build_path_topology(sim, hop_count=6, rtt=0.040,
                                   jitter_std=0.0004)
        path.client.udp.bind(7000)
        source = path.server.udp.bind_ephemeral()
        for index, size in enumerate((200, 4000, 1472, 12000)):
            sim.schedule_at(index * 0.05, source.send,
                            path.client.address, 7000, size)
        sim.run()
        director = sim.fast_path
        assert len(director.ledger) == 4
        assert validator.check_run(run="honest") == []

        record = director.ledger[1]
        arrivals = list(record.arrivals)
        arrivals[-1] = math.nextafter(arrivals[-1], math.inf)
        director.ledger[1] = replace(record, arrivals=tuple(arrivals))
        found = validator.check_run(run="tampered")
        assert [violation.invariant for violation in found] == [
            "fastpath-equivalence"]
        assert "train 1 " in found[0].message


class TestStudySurface:
    def test_surfaces_cover_runs_and_telemetry(self):
        telemetry = _fresh_telemetry()
        study = run_study(library=one_set_library(), seed=SEED,
                          telemetry=telemetry, jobs=1)
        surfaces = study_surface(study, telemetry)
        labels = [run.label for run in study]
        for label in labels:
            assert f"run[{label}].trace" in surfaces
            assert f"run[{label}].stats" in surfaces
            assert f"run[{label}].meta" in surfaces
        assert "telemetry.summary" in surfaces
        assert "telemetry.events" in surfaces
        assert "telemetry.spans" in surfaces

    def test_without_telemetry_only_run_surfaces(self):
        study = run_study(library=one_set_library(), seed=SEED, jobs=1)
        surfaces = study_surface(study)
        assert not any(key.startswith("telemetry.") for key in surfaces)


class TestDifferentialReport:
    def test_ok_and_summary(self):
        report = DifferentialReport(
            legs={"sequential": {"a": "1"}, "parallel": {"a": "1"}})
        assert report.ok
        assert "all execution paths agree" in report.summary()

    def test_divergence_rendering(self):
        report = DifferentialReport(
            legs={"sequential": {"a": "1"}, "parallel": {"a": "2"}},
            divergences=["parallel: a digest 2 != sequential 1"])
        assert not report.ok
        assert "1 divergence" in report.summary()
        assert "! parallel" in report.summary()


class TestDifferentialFastPath:
    def test_every_leg_runs_on_the_fast_path(self, monkeypatch):
        import repro.validate.differential as differential

        studies = []

        def recording_run_spec(spec, **kwargs):
            studies.append(run_spec(spec, **kwargs))
            return studies[-1]

        monkeypatch.setattr(differential, "run_spec", recording_run_spec)
        report = run_differential(
            RunSpec(seed=SEED, duration_scale=SCALE,
                    library=one_set_library(),
                    fast_path=FlowLevelConfig()), jobs=2)
        assert report.ok, report.summary()
        assert len(studies) == 2  # the sequential and parallel legs
        for study in studies:
            assert all(run.fastpath is not None for run in study)


class TestValidateCli:
    def test_invariant_sweep_exits_zero(self, capsys):
        assert main(["validate", "--set", "3", "--scale", str(SCALE),
                     "--seed", str(SEED)]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out
        for name in INVARIANT_NAMES:
            assert name in out

    def test_divergent_study_exits_nonzero(self, monkeypatch, capsys):
        import repro.validate

        def fake_differential(**kwargs):
            return DifferentialReport(
                legs={"sequential": {"a": "1"}, "parallel": {"a": "2"}},
                divergences=["parallel: a digest 2 != sequential 1"])

        monkeypatch.setattr(repro.validate, "run_differential",
                            fake_differential)
        assert main(["validate", "--study", "--set", "3",
                     "--scale", str(SCALE)]) == 1
        out = capsys.readouterr().out
        assert "1 divergence" in out

    def test_bad_scale_exits_two(self, capsys):
        assert main(["validate", "--scale", "0"]) == 2
        assert "--scale" in capsys.readouterr().err

    def test_bad_jobs_exits_two(self, capsys):
        assert main(["validate", "--jobs", "-1"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_unknown_set_exits_two(self, capsys):
        assert main(["validate", "--set", "99",
                     "--scale", str(SCALE)]) == 2
        assert "no clip set" in capsys.readouterr().err

    def test_unknown_fault_scenario_exits_two(self, capsys):
        assert main(["validate", "--faults", "nope",
                     "--scale", str(SCALE)]) == 2
        assert "unknown fault scenario" in capsys.readouterr().err
