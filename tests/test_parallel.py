"""Parallel study execution: determinism, telemetry merge, disk cache.

The process-pool executor's contract is exactness, not approximation: a
``jobs=N`` study must be bit-identical to the sequential sweep (modulo
``Packet.uid``, a process-local diagnostic counter), and its merged
telemetry must export byte-identical artifacts.  The disk cache layer
is tested through ``REPRO_STUDY_CACHE_DIR`` so nothing touches the real
``~/.cache``.
"""

import hashlib
import os
import pickle
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import pytest

from repro.errors import ExperimentError
from repro.experiments import cache as study_cache
from repro.experiments import parallel as parallel_module
from repro.experiments import runner
from repro.experiments.cache import (
    clear_cache,
    clear_disk_cache,
    disk_cache_entries,
    load_or_run_study,
)
from repro.experiments.conditions import sample_conditions
from repro.experiments.datasets import build_table1_library
from repro.experiments.parallel import pool_info, shutdown_pool
from repro.experiments.progress import PHASE_DONE, PHASE_START
from repro.experiments.runner import (
    resolve_jobs,
    run_label,
    run_study,
    study_conditions,
    work_order,
)
from repro.experiments.spec import RunSpec
from repro.media.library import RateBand
from repro.netsim.engine import Simulator
from repro.telemetry import (
    MemorySink,
    SpanRecorder,
    Telemetry,
    chrome_trace,
    spans_jsonl,
    to_json,
)
from repro.telemetry.sinks import encode_event
from repro.telemetry.streaming import StreamingSummary
from repro.validate.checker import RunValidator
from repro.validate.differential import study_surface

SEED = 424
SCALE = 0.04


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def sequential():
    return run_study(seed=SEED, duration_scale=SCALE)


@pytest.fixture(scope="module")
def parallel():
    with pytest.MonkeyPatch.context() as patch:
        # A real two-worker pool on any host (see ``pool_cpus``).
        patch.setattr(runner, "usable_cpus", lambda: 2)
        return run_study(seed=SEED, duration_scale=SCALE, jobs=2)


class TestJobsResolution:
    def test_default_passthrough(self):
        assert resolve_jobs(1) == 1
        # An explicit count runs as asked up to the usable CPUs.
        assert resolve_jobs(7) == min(7, runner.usable_cpus())

    def test_explicit_jobs_clamped_to_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(runner, "usable_cpus", lambda: 2)
        assert [resolve_jobs(jobs) for jobs in (1, 2, 4, 7)] == [1, 2, 2, 2]
        monkeypatch.setattr(runner, "usable_cpus", lambda: 8)
        assert resolve_jobs(7) == 7

    def test_clamp_is_noted_on_the_execution(self, monkeypatch):
        library = one_set_library(3)
        sequential = run_study(library, seed=SEED, duration_scale=SCALE)
        monkeypatch.setattr(runner, "usable_cpus", lambda: 2)
        pooled = run_study(library, seed=SEED, duration_scale=SCALE,
                           jobs=4, min_parallel_runs=0)
        assert pooled.execution == "parallel jobs=2 (4 asked, 2 usable CPUs)"
        assert study_surface(pooled) == study_surface(sequential)
        monkeypatch.setattr(runner, "usable_cpus", lambda: 1)
        alone = run_study(library, seed=SEED, duration_scale=SCALE, jobs=2,
                          min_parallel_runs=0)
        assert alone.execution == "sequential (2 asked, 1 usable CPU)"
        assert study_surface(alone) == study_surface(sequential)

    @pytest.mark.parametrize("jobs", [0, 2, 4])
    def test_validate_refusal_keys_on_the_jobs_asked(self, monkeypatch,
                                                     jobs):
        # One usable CPU would run any of these sequentially; the
        # request is refused all the same, as on any other host.
        monkeypatch.setattr(runner, "usable_cpus", lambda: 1)
        with pytest.raises(ExperimentError, match="sequential execution"):
            run_study(one_set_library(3), seed=SEED, duration_scale=SCALE,
                      jobs=jobs, validate=RunValidator())

    def test_zero_means_cpu_count(self):
        usable = (len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
        assert resolve_jobs(0) == usable

    def test_zero_counts_only_cpus_in_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_jobs(0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_jobs(-1)


class TestStudyConditions:
    def test_derived_without_a_simulator(self):
        # The sweep used to boot a throwaway Simulator per run just to
        # sample conditions; the derivation must draw identically to
        # the run's own simulator streams so old corpora reproduce.
        for index in (0, 3, 12):
            direct = study_conditions(SEED, index, loss_probability=0.01)
            via_sim = sample_conditions(
                Simulator(seed=SEED + index).streams.stream("conditions"),
                loss_probability=0.01)
            assert direct == via_sim

    def test_indices_draw_independently(self):
        assert study_conditions(SEED, 0) != study_conditions(SEED, 1)


class TestParallelDeterminism:
    def test_runs_in_library_order(self, sequential, parallel):
        assert [run.label for run in parallel] == \
            [run.label for run in sequential]

    def test_conditions_identical(self, sequential, parallel):
        for seq, par in zip(sequential, parallel):
            assert par.conditions == seq.conditions

    def test_traces_identical_modulo_uid(self, sequential, parallel):
        # Packet.uid is a process-global itertools.count — even two
        # sequential same-seed studies in one process disagree on it.
        for seq, par in zip(sequential, parallel):
            assert len(par.trace) == len(seq.trace)
            for mine, theirs in zip(par.trace, seq.trace):
                assert replace(mine, uid=0) == replace(theirs, uid=0)

    def test_player_stats_identical(self, sequential, parallel):
        for seq, par in zip(sequential, parallel):
            for mine, theirs in ((par.real_stats, seq.real_stats),
                                 (par.wmp_stats, seq.wmp_stats)):
                assert mine.receipts == theirs.receipts
                assert mine.frame_plays == theirs.frame_plays
                assert mine.frames_late == theirs.frames_late
                assert mine.packets_lost == theirs.packets_lost
                assert mine.playout_started_at == theirs.playout_started_at
                assert mine.eos_at == theirs.eos_at

    def test_profiles_identical(self, sequential, parallel):
        for seq, par in zip(sequential, parallel):
            assert par.real_profile() == seq.real_profile()
            assert par.wmp_profile() == seq.wmp_profile()

    def test_pings_and_stability_identical(self, sequential, parallel):
        for seq, par in zip(sequential, parallel):
            assert par.ping_before.rtts == seq.ping_before.rtts
            assert par.ping_after.rtts == seq.ping_after.rtts
            assert par.tracert.hop_count == seq.tracert.hop_count
            assert par.stability == seq.stability


class TestTelemetryMergeParity:
    """Satellite: sequential vs jobs=2 telemetry is byte-identical."""

    @staticmethod
    def traced_study(jobs):
        telemetry = Telemetry(sinks=[MemorySink(capacity=None)],
                              spans=SpanRecorder())
        run_study(seed=SEED, duration_scale=SCALE,
                  telemetry=telemetry, jobs=jobs)
        return telemetry

    @pytest.fixture(scope="class")
    def facades(self):
        return self.traced_study(jobs=1), self.traced_study(jobs=2)

    def test_metrics_json_identical(self, facades):
        seq, par = facades
        assert _digest(to_json(par)) == _digest(to_json(seq))

    def test_event_stream_identical(self, facades):
        # Replayed worker events take the parent bus's sequence
        # numbers, so the canonical JSONL encodings match line for
        # line — sequence, time, type, fields, everything.
        seq, par = facades
        seq_lines = [encode_event(e) for e in seq.memory_events()]
        par_lines = [encode_event(e) for e in par.memory_events()]
        assert par_lines == seq_lines

    def test_span_exports_identical(self, facades):
        seq, par = facades
        assert _digest(spans_jsonl(par.spans)) == \
            _digest(spans_jsonl(seq.spans))
        assert _digest(chrome_trace(par.spans)) == \
            _digest(chrome_trace(seq.spans))


def one_set_library(set_number, duration_scale=0.03):
    return build_table1_library(
        duration_scale=duration_scale).only_set(set_number)


@pytest.fixture
def disk_cache(tmp_path, monkeypatch):
    """An isolated, empty disk cache with a clean memory layer."""
    monkeypatch.setenv(study_cache.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.delenv(study_cache.CACHE_ENV, raising=False)
    clear_cache()
    yield tmp_path
    clear_cache()


class TestHeartbeats:
    """The parent sends every heartbeat, whichever executor ran the run."""

    @staticmethod
    def beats(jobs):
        beats = []
        run_study(one_set_library(6), seed=SEED, jobs=jobs,
                  min_parallel_runs=0, stream=StreamingSummary(),
                  progress=beats.append)
        return beats

    def test_pool_sends_the_sequential_sequence(self):
        sequential, pooled = self.beats(jobs=1), self.beats(jobs=2)
        # START(i) then DONE(i), in library order, for both executors.
        assert [(beat.index, beat.phase) for beat in sequential] == [
            (index, phase) for index in range(3)
            for phase in (PHASE_START, PHASE_DONE)]
        assert all(beat.rollup is not None for beat in sequential
                   if beat.phase == PHASE_DONE)
        # Equal beats: labels, events folded and roll-ups included.
        assert pooled == sequential


#: Seed 424's Table 1 runs, the most estimated packet-hop work first.
LONGEST_FIRST = ["set6-v", "set4-h", "set6-h", "set1-h", "set5-h",
                 "set3-h", "set2-h", "set4-l", "set6-l", "set1-l",
                 "set2-l", "set5-l", "set3-l"]


def _labels(library, indices):
    pairs = library.all_pairs()
    return [run_label(pairs[index][0].number, pairs[index][1].band)
            for index in indices]


@pytest.mark.usefixtures("pool_cpus")
class TestWorkOrder:
    """The pool is fed longest run first and merges in library order."""

    def test_longest_estimated_run_first(self):
        library = build_table1_library(duration_scale=SCALE)
        assert _labels(library, work_order(library, SEED)) == LONGEST_FIRST

    def test_pool_submits_by_work_and_collects_by_index(self, monkeypatch):
        submitted = []
        submit = ProcessPoolExecutor.submit

        def recording(pool, fn, *args, **kwargs):
            submitted.append(args[1])  # (worker spec, run index)
            return submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", recording)
        library = build_table1_library(duration_scale=SCALE)
        results = run_study(library, seed=SEED, jobs=2)
        assert _labels(library, submitted) == LONGEST_FIRST
        assert [run.label for run in results] == \
            _labels(library, range(len(library.all_pairs())))


@pytest.mark.usefixtures("pool_cpus")
class TestDeadWorker:
    """One dead worker costs a re-run of the lost runs, not the study."""

    #: The run submitted last, so most runs have results when it dies.
    TARGET = (3, RateBand.LOW)

    @pytest.fixture
    def fresh_pool(self):
        # Workers fork when a pool starts, so a patched pair runner
        # reaches only a pool started after the patch, and no later
        # test may inherit that pool.
        shutdown_pool()
        yield
        shutdown_pool()

    @staticmethod
    def study(jobs, library=None):
        beats = []
        results = run_study(library, seed=SEED, duration_scale=SCALE,
                            jobs=jobs, min_parallel_runs=0,
                            stream=StreamingSummary(),
                            progress=beats.append)
        return study_surface(results), beats, results.execution

    def kill_worker_on_target(self, monkeypatch, marker=None):
        """Make the target pair's worker die: every time, or only
        while ``marker`` is absent (the first death creates it)."""
        original = runner.run_pair_experiment

        def killing(clip_set, pair, *args, **kwargs):
            if ((clip_set.number, pair.band) == self.TARGET
                    and (marker is None or not marker.exists())):
                if marker is not None:
                    marker.touch()
                os._exit(1)
            return original(clip_set, pair, *args, **kwargs)

        monkeypatch.setattr(runner, "run_pair_experiment", killing)

    def test_lost_runs_rerun_on_a_fresh_pool(self, fresh_pool, monkeypatch,
                                             tmp_path):
        surface, beats, _ = self.study(jobs=1)
        marker = tmp_path / "killed"
        self.kill_worker_on_target(monkeypatch, marker)
        pooled_surface, pooled_beats, execution = self.study(jobs=2)
        assert marker.exists()
        assert execution.startswith("parallel jobs=2, ")
        assert "re-run on a fresh pool after a worker died" in execution
        assert pooled_surface == surface
        assert pooled_beats == beats

    def test_worker_lost_while_the_pool_is_idle(self, fresh_pool):
        library = one_set_library(6)
        surface, beats, _ = self.study(jobs=1, library=library)
        self.study(jobs=2, library=library)  # warms the persistent pool
        os.kill(next(iter(parallel_module._POOL._processes)), signal.SIGKILL)
        pooled_surface, pooled_beats, execution = self.study(
            jobs=2, library=library)
        assert "re-run on a fresh pool after a worker died" in execution
        assert pooled_surface == surface
        assert pooled_beats == beats

    def test_second_loss_raises_and_the_next_study_runs(self, fresh_pool,
                                                        monkeypatch):
        with monkeypatch.context() as patch:
            self.kill_worker_on_target(patch)
            with pytest.raises(BrokenProcessPool):
                run_study(seed=SEED, duration_scale=SCALE, jobs=2)
            assert pool_info()["workers"] == 0
        results = run_study(seed=SEED, duration_scale=SCALE, jobs=2)
        assert results.execution == "parallel jobs=2"
        assert len(results) == len(LONGEST_FIRST)


class TestDiskCache:
    def test_run_then_disk_hit_then_clear(self, disk_cache):
        library = one_set_library(1)
        spec = RunSpec(seed=9, duration_scale=0.03, library=library)
        first, source = load_or_run_study(spec)
        assert source == "run"
        assert len(disk_cache_entries()) == 1
        # A fresh process has an empty memory layer; simulate one.
        clear_cache()
        second, source = load_or_run_study(spec)
        assert source == "disk"
        assert len(second) == len(first)
        for mine, theirs in zip(second, first):
            assert mine.trace.records == theirs.trace.records
        # Clearing the disk layer restores the miss path.
        assert clear_disk_cache() == 1
        clear_cache()
        _, source = load_or_run_study(spec)
        assert source == "run"

    def test_memory_layer_still_first(self, disk_cache):
        library = one_set_library(1)
        spec = RunSpec(seed=9, duration_scale=0.03, library=library)
        first, _ = load_or_run_study(spec)
        again, source = load_or_run_study(spec)
        assert source == "memory"
        assert again is first

    def test_escape_hatch_disables_disk(self, disk_cache, monkeypatch):
        monkeypatch.setenv(study_cache.CACHE_ENV, "0")
        spec = RunSpec(seed=9, duration_scale=0.03,
                       library=one_set_library(1))
        load_or_run_study(spec)
        assert disk_cache_entries() == []
        clear_cache()
        _, source = load_or_run_study(spec)
        assert source == "run"

    def test_code_fingerprint_invalidates(self, disk_cache, monkeypatch):
        spec = RunSpec(seed=9, duration_scale=0.03,
                       library=one_set_library(1))
        load_or_run_study(spec)
        clear_cache()
        # A code change means a different digest, hence a miss.
        monkeypatch.setattr(study_cache, "_code_fingerprint", "0" * 16)
        _, source = load_or_run_study(spec)
        assert source == "run"

    @pytest.mark.parametrize("payload", [
        {"streaming": None},
        {"runs": "not a list of runs"},
        [],
    ], ids=["no-runs", "runs-not-a-list", "bare-list"])
    def test_wrong_shaped_entry_is_a_miss(self, disk_cache, payload):
        # A well-formed pickle that _disk_store did not write (here, at
        # the entry's own path) is a miss, never a KeyError.
        spec = RunSpec(seed=9, duration_scale=0.03,
                       library=one_set_library(1))
        entry, _ = study_cache._entry_paths(spec.fingerprint())
        entry.parent.mkdir(parents=True, exist_ok=True)
        entry.write_bytes(pickle.dumps(payload))
        study, source = load_or_run_study(spec)
        assert source == "run"
        assert len(study) == 2

    def test_truncated_entry_is_a_miss_then_overwritten(self, disk_cache):
        spec = RunSpec(seed=9, duration_scale=0.03,
                       library=one_set_library(1))
        load_or_run_study(spec)
        entry, _ = study_cache._entry_paths(spec.fingerprint())
        entry.write_bytes(entry.read_bytes()[:64])
        clear_cache()
        fresh, source = load_or_run_study(spec)
        assert source == "run"
        # The fresh run stored a whole entry in the truncated one's place.
        clear_cache()
        again, source = load_or_run_study(spec)
        assert source == "disk"
        for mine, theirs in zip(again, fresh):
            assert mine.trace.records == theirs.trace.records
