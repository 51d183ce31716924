"""Self-test of the end-to-end benchmark.

Run from the repository root (about a minute)::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from compare import compare
from layers import PER_LAYER
from run import END_TO_END, WORKLOADS
from speed import Sampler, kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=180)


def result_line(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def assert_declared(metrics: dict, declared: list) -> None:
    """Exactly the declared metrics, each a number with its unit."""
    assert sorted(metrics) == sorted(entry["name"] for entry in declared)
    for entry in declared:
        assert NAME.match(entry["name"])
        metric = metrics[entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))


def copy_benchmark(root: Path) -> Path:
    """The benchmark's own files under ``root``, as a checkout has them."""
    shutil.copy(ROOT / "BENCHMARK.json", root)
    target = root / "benchmarks" / "e2e"
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns(
        "results", "__pycache__"))
    return target


def test_benchmark_json_matches_the_code():
    assert sorted(entry["name"] for entry in BENCHMARK["workloads"]) \
        == sorted(WORKLOADS)
    assert {entry["name"]: entry["unit"]
            for entry in BENCHMARK["end_to_end"]} == END_TO_END
    assert {entry["name"]: entry["unit"]
            for entry in BENCHMARK["per_layer"]} == PER_LAYER
    bounds = {entry["name"]: entry["bound"]
              for entry in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    done = bench("--workload", workload, "--seed", "77", "--seconds", "1",
                 "--trace", "0")
    assert done.returncode == 0, done.stderr
    line = result_line(done)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 13
    assert_declared(line["metrics"], BENCHMARK["end_to_end"])
    for name, metric in line["metrics"].items():
        assert metric["value"] > 0, name


def test_another_seed_keeps_the_metric_names():
    done = bench("--workload", "table1-fastpath", "--seed", "78",
                 "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    assert_declared(result_line(done)["metrics"], BENCHMARK["end_to_end"])


def test_trace_prints_every_per_layer_metric_and_writes_the_ledger():
    done = bench("--workload", "table1-packet", "--seed", "77",
                 "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    assert_declared(result_line(done)["metrics"], BENCHMARK["per_layer"])
    ledger = json.loads(
        (HERE / "results" / "table1-packet" / "layers.json").read_text())
    assert ledger["self_sum_s"] == pytest.approx(ledger["window_s"], rel=0.01)
    assert ledger["trace_overhead"] > 0
    assert ledger["metrics"]["netsim.node.forwards"]["value"] > 0


def test_a_corrupted_pinned_digest_fails_the_run(tmp_path):
    copy = copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    expected = json.loads((copy / "expected.json").read_text())
    runs = expected["workloads"]["table1-packet"]["runs"]
    runs[min(runs)] = "0" * 32
    (copy / "expected.json").write_text(json.dumps(expected))
    done = bench("--workload", "table1-packet", "--seed", "77",
                 "--seconds", "1", "--trace", "0", root=tmp_path)
    assert done.returncode != 0
    line = result_line(done)
    assert not line["correct"] and line["failed"] >= 1


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    copy_benchmark(tmp_path)
    done = bench("--workload", "table1-packet", "--seed", "77",
                 "--seconds", "1", "--trace", "0", root=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_the_sampler_converts_sampled_work_to_reference_seconds():
    sampler = Sampler(2)
    sampler.on(1)
    deadline = time.perf_counter() + 0.3
    while time.perf_counter() < deadline:
        kernel(200)
    sampler.off()
    speed, handler_s = sampler.read([1])
    assert speed > 0 and handler_s > 0
    assert sampler.read([0]) == (1.0, 0.0)
    reference, used = sampler.reference_seconds(1.0, [1], workers=2)
    assert used == speed
    assert reference == pytest.approx((1.0 - handler_s / 2) * speed)
    sampler.reset()
    assert sampler.read([1]) == (1.0, 0.0)


def write_runs(directory: Path, study_s: list, failed: int = 0) -> None:
    directory.mkdir()
    for seed, value in enumerate(study_s):
        metrics = {entry["name"]: {"value": 1.0, "unit": entry["unit"]}
                   for entry in BENCHMARK["end_to_end"]}
        metrics["study_s"]["value"] = value
        (directory / f"seed{seed}.json").write_text(json.dumps(
            {"workload": "table1-packet", "seed": seed, "trace": 0,
             "attempted": 13, "failed": failed, "metrics": metrics}))


@pytest.mark.parametrize("change, label, ok", [
    ([1.30, 1.31, 1.29, 1.32], "regressed", False),
    ([0.80, 0.81, 0.79, 0.82], "improved", True),
    ([1.01, 0.99, 1.00, 1.02], "unchanged", True),
])
def test_compare_labels_each_metric(tmp_path, change, label, ok):
    write_runs(tmp_path / "parent", [1.00, 1.01, 0.99, 1.02])
    write_runs(tmp_path / "change", change)
    lines, passed = compare(tmp_path / "parent", tmp_path / "change",
                            BENCHMARK)
    row = next(line for line in lines if " study_s " in line)
    assert row.endswith(label)
    assert passed is ok


def test_compare_reports_a_noisy_parent_as_unresolved(tmp_path):
    write_runs(tmp_path / "parent", [1.0, 2.0, 1.0, 2.0])
    write_runs(tmp_path / "change", [1.5, 1.6, 1.4, 1.5])
    lines, _ = compare(tmp_path / "parent", tmp_path / "change", BENCHMARK)
    assert next(line for line in lines
                if " study_s " in line).endswith("unresolved")


def test_compare_fails_on_more_failed_operations(tmp_path):
    write_runs(tmp_path / "parent", [1.00, 1.01, 0.99, 1.02])
    write_runs(tmp_path / "change", [1.00, 1.01, 0.99, 1.02], failed=1)
    assert compare(tmp_path / "parent", tmp_path / "change",
                   BENCHMARK)[1] is False
