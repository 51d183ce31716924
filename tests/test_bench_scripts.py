"""The benchmark artifact emitter and the medians comparison script."""

import importlib.util
import json
import os
import pathlib
from types import SimpleNamespace

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_script(relative):
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


emit_json = load_script("benchmarks/emit_json.py")
bench_compare = load_script("scripts/bench_compare.py")


def fake_bench(name, median, rounds=3):
    """A stand-in for a pytest-benchmark ``Metadata`` object."""
    stats = SimpleNamespace(median=median, mean=median, stddev=0.0,
                            min=median, max=median, rounds=rounds)
    return SimpleNamespace(name=name, fullname=f"benchmarks/b.py::{name}",
                           stats=stats, iterations=1)


def write_artifact(tmp_path, name, medians, **shape):
    """An artifact as the emitter writes it, with ``shape`` overriding
    (or, set to ``None``, removing) machine-shape keys."""
    path = tmp_path / name
    assert emit_json.write_benchmark_json(
        [fake_bench(bench, median) for bench, median in medians.items()],
        str(path))
    document = json.loads(path.read_text())
    for key, value in shape.items():
        if value is None:
            del document[key]
        else:
            document[key] = value
    path.write_text(json.dumps(document))
    return str(path)


class TestEmitJson:
    def test_machine_shape_counts_cpus_and_affinity(self):
        shape = emit_json.machine_shape()
        assert shape["cpu_count"] == os.cpu_count()
        if hasattr(os, "sched_getaffinity"):
            assert shape["affinity_cpus"] == len(os.sched_getaffinity(0))

    def test_affinity_is_none_without_sched_getaffinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert emit_json.machine_shape() == {
            "cpu_count": os.cpu_count(), "affinity_cpus": None}

    def test_artifact_records_the_machine_shape(self, tmp_path):
        path = tmp_path / "bench.json"
        assert emit_json.write_benchmark_json(
            [fake_bench("test_b", 0.5), fake_bench("test_a", 0.25)],
            str(path))
        document = json.loads(path.read_text())
        for key, value in emit_json.machine_shape().items():
            assert document[key] == value
        assert document["python"] and document["platform"]
        assert [b["name"] for b in document["benchmarks"]] == [
            "test_a", "test_b"]
        assert document["benchmarks"][0]["median_seconds"] == 0.25

    def test_nothing_written_when_no_bench_ran(self, tmp_path):
        path = tmp_path / "bench.json"
        assert not emit_json.write_benchmark_json(
            [fake_bench("test_a", 0.5, rounds=0)], str(path))
        assert not path.exists()


class TestBenchCompare:
    GUARDED = "test_bench_event_loop"

    def test_committed_baseline_without_shape_keys_is_accepted(
            self, tmp_path, capsys):
        baseline = str(ROOT / "BENCH_substrate.json")
        committed = json.loads(pathlib.Path(baseline).read_text())
        fresh = write_artifact(tmp_path, "fresh.json", {
            bench["name"]: bench["median_seconds"]
            for bench in committed["benchmarks"]})
        assert bench_compare.main([baseline, fresh]) == 0
        out = capsys.readouterr().out
        assert "baseline machine:" in out and "fresh machine:" in out
        if "cpu_count" not in committed:
            assert "cpu_count unrecorded" in out
            assert "note: machine shapes differ in" in out

    def test_same_shape_prints_no_note(self, tmp_path, capsys):
        baseline = write_artifact(tmp_path, "a.json", {self.GUARDED: 1.0})
        fresh = write_artifact(tmp_path, "b.json", {self.GUARDED: 1.1})
        assert bench_compare.main([baseline, fresh]) == 0
        out = capsys.readouterr().out
        assert f"cpu_count {os.cpu_count()}" in out
        assert "note:" not in out

    @pytest.mark.parametrize("shape", [
        {"cpu_count": 64}, {"affinity_cpus": 1}, {"python": "3.8.0"},
        {"cpu_count": None, "affinity_cpus": None}])
    def test_shape_difference_is_noted_and_exit_code_unchanged(
            self, tmp_path, capsys, shape):
        baseline = write_artifact(tmp_path, "a.json", {self.GUARDED: 1.0},
                                  **shape)
        within = write_artifact(tmp_path, "b.json", {self.GUARDED: 1.1})
        regressed = write_artifact(tmp_path, "c.json", {self.GUARDED: 2.0})
        assert bench_compare.main([baseline, within]) == 0
        out = capsys.readouterr().out
        assert "note: machine shapes differ in" in out
        for key in shape:
            assert key in out.split("note:")[1]
        assert bench_compare.main([baseline, regressed]) == 1
        assert "REGRESSION" in capsys.readouterr().err
