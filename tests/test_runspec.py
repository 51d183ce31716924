"""RunSpec: one declared study configuration and its compatibility table.

Every refused feature pair must fail with the table's exact reason
before any pair run starts — from the library (``run_study``,
``run_pair_experiment``) and from the CLI (exit 2).  The fingerprint
both cache layers key on must be canonical: equal for equal specs,
different for any single-field change, and independent of the
interpreter's string-hash seed.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cc.abr import AbrConfig
from repro.cc.base import CcConfig
from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments import cache as study_cache
from repro.experiments.cache import (
    clear_cache,
    disk_cache_entries,
    load_or_run_study,
)
from repro.experiments.datasets import build_table1_library
from repro.experiments.runner import (
    run_pair_experiment,
    run_study,
    study_conditions,
)
from repro.experiments.spec import COMPATIBILITY, RunSpec, check_compatible
from repro.faults import build_scenario
from repro.netsim.flowlevel import FlowLevelConfig
from repro.repair import RepairConfig
from repro.telemetry import SpanRecorder, Telemetry
from repro.validate.checker import RunValidator

SEED = 424
SRC = Path(__file__).resolve().parents[1] / "src"

#: ``run_study`` keywords that switch each table feature on.
FEATURES = {
    "cc": lambda: {"cc": CcConfig(kind="aimd")},
    "abr": lambda: {"abr": AbrConfig()},
    "fast_path": lambda: {"fast_path": FlowLevelConfig()},
    "repair": lambda: {"repair": RepairConfig()},
    "validate": lambda: {"validate": RunValidator()},
    "jobs>1": lambda: {"jobs": 2, "min_parallel_runs": 0},
    "spans": lambda: {"telemetry": Telemetry(spans=SpanRecorder())},
}

#: The ``repro validate`` flags that reach each CLI-reachable pair.
CLI_FLAGS = {
    ("cc", "abr"): ["--cc", "aimd", "--abr"],
    ("fast_path", "abr"): ["--fast-path", "--abr"],
    ("fast_path", "repair"): ["--fast-path", "--repair"],
    ("repair", "abr"): ["--repair", "--abr"],
}

PAIR_IDS = ["-".join(pair) for pair, _ in COMPATIBILITY]
#: The pairs ``run_pair_experiment`` sees (it has no validator or jobs).
PAIR_RUN_CASES = [(pair, reason) for pair, reason in COMPATIBILITY
                  if not {"validate", "jobs>1"} & set(pair)]


def one_set_library(set_number, duration_scale=0.03):
    return build_table1_library(
        duration_scale=duration_scale).only_set(set_number)


class TestCompatibilityTable:
    def test_every_feature_has_a_switch(self):
        named = {name for pair, _ in COMPATIBILITY for name in pair}
        assert named == set(FEATURES)

    @pytest.mark.parametrize("pair,reason", COMPATIBILITY, ids=PAIR_IDS)
    def test_run_study_refuses_before_any_pair_run(self, pair, reason):
        beats = []
        kwargs = {**FEATURES[pair[0]](), **FEATURES[pair[1]]()}
        with pytest.raises(ExperimentError) as excinfo:
            run_study(library=one_set_library(3), seed=SEED,
                      progress=beats.append, **kwargs)
        assert str(excinfo.value) == reason
        assert beats == []

    @pytest.mark.parametrize("pair,reason", PAIR_RUN_CASES,
                             ids=["-".join(p) for p, _ in PAIR_RUN_CASES])
    def test_pair_run_refuses_with_the_same_reason(self, pair, reason):
        clip_set, band_pair = one_set_library(3).all_pairs()[0]
        kwargs = {**FEATURES[pair[0]](), **FEATURES[pair[1]]()}
        with pytest.raises(ExperimentError) as excinfo:
            run_pair_experiment(clip_set, band_pair, seed=SEED,
                                conditions=study_conditions(SEED, 0),
                                **kwargs)
        assert str(excinfo.value) == reason

    @pytest.mark.parametrize("pair", sorted(CLI_FLAGS),
                             ids=["-".join(p) for p in sorted(CLI_FLAGS)])
    def test_cli_exits_two_with_the_same_reason(self, pair, capsys):
        reason = dict(COMPATIBILITY)[pair]
        assert main(["validate", "--set", "3", "--scale", "0.04",
                     *CLI_FLAGS[pair]]) == 2
        assert reason in capsys.readouterr().err

    def test_null_repair_composes_with_abr_and_fast_path(self):
        null = RepairConfig(fec_group=0, nack=False)
        check_compatible(abr=AbrConfig(), repair=null)
        check_compatible(fast_path=FlowLevelConfig(), repair=null)


def _every_field_set() -> RunSpec:
    return RunSpec(library=one_set_library(2), seed=7, duration_scale=0.5,
                   loss_probability=0.01,
                   scenario=build_scenario("link-flap", 7),
                   cc=CcConfig(kind="gcc"), abr=AbrConfig(),
                   repair=RepairConfig(), fast_path=FlowLevelConfig(),
                   stream=True)


class TestFingerprint:
    def test_equal_specs_share_a_fingerprint(self):
        assert (RunSpec(seed=9, library=one_set_library(1)).fingerprint()
                == RunSpec(seed=9, library=one_set_library(1)).fingerprint())
        assert (_every_field_set().fingerprint()
                == _every_field_set().fingerprint())

    def test_default_library_is_table1_at_the_scale(self):
        explicit = RunSpec(library=build_table1_library(duration_scale=0.3),
                           duration_scale=0.3)
        assert RunSpec(duration_scale=0.3).fingerprint() == \
            explicit.fingerprint()

    def test_any_single_field_changes_it(self):
        base = RunSpec(seed=9, duration_scale=0.03)
        changes = {
            "library": one_set_library(1),
            "seed": 10,
            "duration_scale": 0.04,
            "loss_probability": 0.02,
            "scenario": build_scenario("link-flap", 9),
            "cc": CcConfig(kind="aimd"),
            "abr": AbrConfig(),
            "repair": RepairConfig(),
            "fast_path": FlowLevelConfig(),
            "stream": True,
        }
        assert set(changes) == {f.name for f in dataclasses.fields(RunSpec)}
        prints = {name: dataclasses.replace(base, **{name: value})
                  .fingerprint() for name, value in changes.items()}
        prints["base"] = base.fingerprint()
        assert len(set(prints.values())) == len(prints)

    def test_independent_of_the_string_hash_seed(self):
        code = ("import sys; sys.path.insert(0, sys.argv[1]);"
                "from tests.test_runspec import _every_field_set;"
                "print(_every_field_set().fingerprint())")
        root = str(Path(__file__).resolve().parents[1])
        outputs = set()
        for hash_seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=str(SRC))
            done = subprocess.run([sys.executable, "-c", code, root],
                                  env=env, cwd=root, capture_output=True,
                                  text=True, check=True)
            outputs.add(done.stdout.strip())
        assert outputs == {_every_field_set().fingerprint()}

    def test_describe_names_every_field(self):
        described = _every_field_set().describe()
        assert set(described) == {f.name for f in dataclasses.fields(RunSpec)}
        assert described["seed"] == 7 and described["stream"] is True


@pytest.fixture
def disk_cache(tmp_path, monkeypatch):
    """An isolated, empty disk cache with a clean memory layer."""
    monkeypatch.setenv(study_cache.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.delenv(study_cache.CACHE_ENV, raising=False)
    clear_cache()
    yield tmp_path
    clear_cache()


class TestCacheKeying:
    """One fingerprint keys both cache layers."""

    def test_key_is_shared_and_stable(self):
        assert (RunSpec(seed=9, duration_scale=0.03,
                        library=one_set_library(1)).fingerprint()
                == RunSpec(seed=9, duration_scale=0.03,
                           library=one_set_library(1)).fingerprint())
        assert (RunSpec(seed=9, duration_scale=0.03).fingerprint()
                == RunSpec(seed=9, duration_scale=0.03).fingerprint())

    def test_libraries_with_equal_scalars_never_alias(self):
        # Same (seed, scale, loss), different content: distinct keys.
        assert (RunSpec(seed=9, duration_scale=0.03,
                        library=one_set_library(1)).fingerprint()
                != RunSpec(seed=9, duration_scale=0.03,
                           library=one_set_library(2)).fingerprint())

    def test_cache_key_incorporates_scenario(self):
        def key(scenario):
            return RunSpec(seed=SEED, scenario=scenario).fingerprint()

        flap = build_scenario("link-flap", SEED)
        degrade = build_scenario("degrade", SEED)
        assert len({key(None), key(flap), key(degrade)}) == 3
        assert key(flap) == key(build_scenario("link-flap", SEED))

    def test_disk_layer_keeps_libraries_apart(self, disk_cache):
        def spec(set_number):
            return RunSpec(seed=9, duration_scale=0.03,
                           library=one_set_library(set_number))

        first, _ = load_or_run_study(spec(1))
        second, _ = load_or_run_study(spec(2))
        assert len(disk_cache_entries()) == 2
        clear_cache()
        # Each key reloads its own sweep from disk, never the other's.
        reloaded_one, source = load_or_run_study(spec(1))
        assert source == "disk"
        reloaded_two, source = load_or_run_study(spec(2))
        assert source == "disk"
        assert ({run.set_number for run in reloaded_one}
                == {run.set_number for run in first})
        assert ({run.set_number for run in reloaded_two}
                == {run.set_number for run in second})
        assert ({run.set_number for run in reloaded_one}
                != {run.set_number for run in reloaded_two})

    def test_sidecar_describes_the_spec(self, disk_cache):
        spec = RunSpec(seed=9, duration_scale=0.03,
                       library=one_set_library(1))
        load_or_run_study(spec)
        (entry,) = disk_cache_entries()
        for name, value in spec.describe().items():
            assert entry[name] == value
        assert entry["runs"] == 2
