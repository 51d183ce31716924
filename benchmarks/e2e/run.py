"""End-to-end study benchmark: one command, four named workloads.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload table1-packet --seed 77 \
        --seconds 16 --trace 0

Each workload is the Table 1 sweep behind every figure of the paper,
driven as a closed loop with one client: one ``run_study`` call at a
time, then every ``ALL_FIGURES`` generator on its result.  This script
only orchestrates; the program runs in fresh child processes, started
one after another with single-threaded BLAS:

* the measurement child (``measure.py``) times sweeps for ``--seconds``
  and checks every output against the first sweep and, at the default
  seed, against the digests pinned in ``expected.json``;
* with ``--trace 0``, five set-up probes (``probe.py``: fresh processes
  that import, build the library and run a one-set sweep) give
  ``setup_s``;
* with ``--trace 1`` the child also makes one traced sweep and writes
  the per-layer ledger to ``results/<workload>/layers.json``.

Every timing is reported in reference seconds: wall seconds times the
machine's speed sampled during them (``speed.py``), so that the shared
host's drift does not read as a change to the program.  The wall times
are kept beside them in the saved result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full
result, with samples and the machine's shape, is saved under
``results/<workload>/``.  The exit code is 0 only when every output
was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

DEFAULT_SEED = 77
DEFAULT_SECONDS = 20
SETUP_PROBES = 5
#: The whole command must end within 180 s: five probes of at most
#: 10 s leave 120 s for the measurement child.
PROBE_TIMEOUT_S = 10.0
MEASURE_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    """One named set of inputs.

    Attributes:
        scale: ``duration_scale`` of the Table 1 library.
        jobs: ``run_study(jobs=...)``; 2 uses the persistent pool.
        fast_path: run with ``fast_path=FlowLevelConfig()``.
        burst_loss_repair: add ``build_scenario("burst-loss", seed)`` and
            ``RepairConfig()``.
        inputs_of: another workload whose inputs, and so whose pinned
            outputs, these are.
    """

    scale: float
    jobs: int = 1
    fast_path: bool = False
    burst_loss_repair: bool = False
    inputs_of: str = ""


WORKLOADS: Dict[str, Workload] = {
    "table1-packet": Workload(scale=0.1),
    "table1-fastpath": Workload(scale=0.2, fast_path=True),
    "table1-jobs2": Workload(scale=0.1, jobs=2, inputs_of="table1-packet"),
    "burstloss-repair": Workload(scale=0.1, burst_loss_repair=True),
}

#: End-to-end metrics, in print order: name -> unit.
END_TO_END = {
    "study_s": "s",
    "packets_per_s": "pkt/s",
    "figures_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def machine_shape(jobs: int) -> Dict[str, object]:
    """What a timing depends on besides the code: CPUs, Python, workers."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        affinity = os.cpu_count() or 0
    return {"cpu_count": os.cpu_count(), "affinity_cpus": affinity,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": sys.platform, "jobs": jobs}


def child_env() -> Dict[str, str]:
    """Environment of every child: the checkout's sources, one BLAS
    thread, and a fixed string-hash seed so dict layouts (and with them
    timings) do not vary from process to process."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(script: str, args: List[str],
              timeout: float) -> "subprocess.CompletedProcess":
    """Run ``script`` of this directory with ``args`` in its own process
    group.

    Returns once the child and anything it started (pool workers) have
    ended; on timeout the whole group is killed.
    """
    command = [sys.executable, str(HERE / script)] + args
    child = subprocess.Popen(command, cwd=str(ROOT), env=child_env(),
                             stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(child.pid)
        child.communicate()
        raise
    finally:
        _kill_group(child.pid)
    return subprocess.CompletedProcess(command, child.returncode, stdout)


def _kill_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def measure_setup(workload: str,
                  study_seed: int) -> Tuple[List[float], List[float]]:
    """Fresh-process start-ups, spawn to exit: their reference seconds
    and their wall seconds."""
    references, walls = [], []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        done = run_child("probe.py", ["--workload", workload,
                                      "--study-seed", str(study_seed)],
                         PROBE_TIMEOUT_S)
        elapsed = time.perf_counter() - started
        if done.returncode != 0 or not done.stdout.strip():
            raise RuntimeError(f"set-up probe exited {done.returncode}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        references.append((elapsed - probe["handler_s"]) * probe["speed"])
        walls.append(elapsed)
    return references, walls


def quartiles(values: List[float]) -> List[float]:
    """First quartile, median, third quartile (all equal for one value)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _spread_note(values: List[float], noun: str) -> str:
    first, _, third = quartiles(values)
    return f"q1 {first:.4f} q3 {third:.4f}, {len(values)} {noun}"


def report_lines(result: Dict[str, object]) -> List[str]:
    """Human-readable summary printed above the JSON line."""
    machine = result["machine"]
    lines = [f"workload {result['workload']} seed {result['seed']} "
             f"(study seed {result['study_seed']}), trace {result['trace']}; "
             f"{machine['cpu_count']} CPUs, affinity "
             f"{machine['affinity_cpus']}, Python {machine['python']}, "
             f"jobs {machine['jobs']}"]
    samples = result["samples"]
    notes = {"study_s": _spread_note(samples["study_s"], "sweeps"),
             "figures_s": _spread_note(samples["figures_s"], "renders")}
    if "setup_s" in samples:
        notes["setup_s"] = _spread_note(samples["setup_s"], "start-ups")
    for name, metric in result["metrics"].items():
        note = notes.get(name, "")
        lines.append(f"  {name:<40} {metric['value']:>14.6g} "
                     f"{metric['unit']:<6} {note}")
    walls = [f"{name} {statistics.median(samples[name]):.4f} s"
             for name in ("study_wall_s", "figures_wall_s", "setup_wall_s")
             if name in samples]
    lines.append(f"  wall medians: {', '.join(walls)}; machine speed "
                 f"{statistics.median(samples['speed']):.3f} of the "
                 f"reference (median over sweeps)")
    lines.append(f"correct {str(result['correct']).lower()}: "
                 f"{result['attempted']} operations, "
                 f"{result['failed']} failed")
    lines.extend(f"  ! {problem}" for problem in result["problems"])
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    done = run_child("measure.py",
                     ["measure", "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace)], MEASURE_TIMEOUT_S)
    if done.returncode != 0 or not done.stdout.strip():
        print(f"error: measurement exited {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    workload = WORKLOADS[args.workload]
    result["machine"] = machine_shape(workload.jobs)
    if not args.trace:
        setup, setup_wall = measure_setup(args.workload, result["study_seed"])
        result["samples"]["setup_s"] = setup
        result["samples"]["setup_wall_s"] = setup_wall
        result["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                        "unit": END_TO_END["setup_s"]}
        result["metrics"] = {name: result["metrics"][name]
                             for name in END_TO_END}

    out = RESULTS / args.workload
    out.mkdir(parents=True, exist_ok=True)
    if args.trace:
        layers = result.pop("layers")
        layers["machine"] = result["machine"]
        (out / "layers.json").write_text(json.dumps(layers, indent=1) + "\n")
    stem = f"trace-seed{args.seed}" if args.trace else f"seed{args.seed}"
    (out / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    for line in report_lines(result):
        print(line)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
