"""Golden-trace regression suite: the checked-in digests must hold."""

import json
import shutil

import pytest

from repro.cli import main
from repro.validate import GOLDEN_SCENARIOS, check_golden, compute_golden
from repro.validate.golden import (
    compare_golden,
    default_golden_dir,
    golden_path,
    load_golden,
    write_golden,
)


class TestGoldenFiles:
    def test_every_scenario_has_a_checked_in_golden(self):
        for name in GOLDEN_SCENARIOS:
            assert golden_path(name).is_file(), (
                f"tests/golden/{name}.json missing — run "
                "`python scripts/update_goldens.py` and commit it")

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_run_matches_its_golden(self, name):
        mismatches = check_golden(GOLDEN_SCENARIOS[name])
        assert mismatches == [], (
            f"golden {name} diverged:\n  " + "\n  ".join(mismatches)
            + "\nIf this change is intentional, re-pin with "
            "`python scripts/update_goldens.py` and commit the diff.")


class TestGoldenMachinery:
    def test_tampered_digest_is_detected(self):
        name = "baseline_pair"
        expected = load_golden(golden_path(name))
        tampered = json.loads(json.dumps(expected))
        surface = sorted(tampered["digests"])[0]
        tampered["digests"][surface] = "0" * 64
        mismatches = compare_golden(tampered, expected)
        assert any(surface in entry for entry in mismatches)

    def test_parameter_drift_is_detected(self):
        expected = load_golden(golden_path("baseline_pair"))
        drifted = json.loads(json.dumps(expected))
        drifted["seed"] = expected["seed"] + 1
        mismatches = compare_golden(expected, drifted)
        assert any("seed" in entry for entry in mismatches)

    def test_missing_and_extra_surfaces_are_detected(self):
        expected = load_golden(golden_path("baseline_pair"))
        actual = json.loads(json.dumps(expected))
        surface = sorted(actual["digests"])[0]
        del actual["digests"][surface]
        actual["digests"]["bogus.surface"] = "f" * 64
        mismatches = compare_golden(expected, actual)
        assert any("missing" in entry for entry in mismatches)
        assert any("bogus.surface" in entry for entry in mismatches)

    def test_missing_file_points_at_the_refresher(self, tmp_path):
        mismatches = check_golden(GOLDEN_SCENARIOS["baseline_pair"],
                                  directory=tmp_path)
        assert len(mismatches) == 1
        assert "update_goldens.py" in mismatches[0]

    def test_write_and_load_round_trip(self, tmp_path):
        scenario = GOLDEN_SCENARIOS["baseline_pair"]
        document = compute_golden(scenario)
        path = golden_path(scenario.name, tmp_path)
        write_golden(document, path)
        assert load_golden(path) == document
        assert check_golden(scenario, directory=tmp_path) == []

    def test_default_dir_is_the_repo_checkout(self):
        assert default_golden_dir().name == "golden"
        assert default_golden_dir().parent.name == "tests"


class TestGoldenCli:
    """`repro validate --golden`'s exit contract, narrowed to one
    scenario whose golden is copied to a scratch directory."""

    @pytest.fixture
    def baseline_copy(self, monkeypatch, tmp_path):
        name = "baseline_pair"
        shutil.copy(golden_path(name), tmp_path)
        monkeypatch.setattr("repro.validate.GOLDEN_SCENARIOS",
                            {name: GOLDEN_SCENARIOS[name]})
        monkeypatch.setattr("repro.validate.golden.default_golden_dir",
                            lambda: tmp_path)
        return golden_path(name, tmp_path)

    def test_checked_in_golden_exits_zero(self, baseline_copy, capsys):
        assert main(["validate", "--golden"]) == 0
        assert capsys.readouterr().out == "golden baseline_pair: ok\n"

    def test_tampered_digest_exits_one_naming_it(self, baseline_copy,
                                                 capsys):
        document = load_golden(baseline_copy)
        surface = sorted(document["digests"])[0]
        document["digests"][surface] = "0" * 64
        write_golden(document, baseline_copy)
        assert main(["validate", "--golden"]) == 1
        out = capsys.readouterr().out
        assert "golden baseline_pair: 1 mismatch\n" in out
        assert f"! {surface}: " in out
