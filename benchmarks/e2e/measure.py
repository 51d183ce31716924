"""Child process of the end-to-end benchmark, started by ``run.py``.

Modes:

* ``measure`` builds one workload's inputs from ``--seed``, warms up,
  then times whole sweeps, each followed by every figure render, for
  ``--seconds``.  Every duration is converted to reference seconds with
  the machine speed sampled during it (``speed.py``).  It checks every
  output and prints one JSON document on standard output.  With
  ``--trace 1`` it spends half the time on untraced sweeps and then
  makes one traced sweep, unsampled (see ``layers.py``).
* ``pin`` recomputes the digests ``expected.json`` pins for the default
  seed.  Run it only when a change to simulation output is intended.

Set-up probes are ``probe.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import mmap
import pickle
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import repro.experiments.parallel as parallel
import repro.experiments.runner as runner
from repro.experiments.datasets import build_table1_library
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.runner import StudyResults, run_study, study_conditions
from repro.faults.scenario import build_scenario
from repro.media.library import ClipLibrary
from repro.netsim.flowlevel import FlowLevelConfig
from repro.repair.base import RepairConfig
from repro.validate.differential import study_surface

from run import DEFAULT_SEED, END_TO_END, WORKLOADS, Workload
from speed import Sampler

EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: Generated sweeps keep every path inside the bucket of Figure 2's hop
#: distribution that holds 70% of paths, and their packet-hop work
#: within this share of the bucket's midpoint (see choose_study_seed).
HOP_BAND = (15, 20)
WORK_TOLERANCE = 0.01
#: Figure renders per sweep: each is one ``figures_s`` sample.
FIGURE_RENDERS = 2


def choose_study_seed(seed: int, library: ClipLibrary) -> int:
    """The study seed a sweep runs under, generated from ``seed``.

    Pair run ``i`` samples its path from ``study_seed + i``, and a
    longer path means proportionally more per-hop work, so raw seeds
    move sweep time by up to ~12% on their own.  The generator holds the
    input size fixed instead: scanning upward from a ``seed``-derived
    start, it takes the first study seed whose paths are all within
    ``HOP_BAND`` and whose packet-hop work (encoded bytes times hops,
    summed over pairs) is within ``WORK_TOLERANCE`` of the band's
    midpoint.  Which pair gets which path, the RTTs, jitter and
    packetization still change with the seed.
    """
    weights = [(pair.real.encoded_kbps + pair.wmp.encoded_kbps)
               * clip_set.duration for clip_set, pair in library.all_pairs()]
    low, high = HOP_BAND
    target = (low + high) / 2 * sum(weights)
    candidate = random.Random(seed).randrange(2 ** 31)
    path: List[int] = []  # hop counts of runs candidate, candidate + 1, ...
    while True:
        while len(path) < len(weights):
            path.append(study_conditions(candidate, len(path)).hop_count)
        outside = [index for index, count in enumerate(path)
                   if not low <= count <= high]
        skip = outside[-1] + 1 if outside else 0
        if not skip:
            work = sum(weight * count for weight, count in zip(weights, path))
            if abs(work / target - 1.0) <= WORK_TOLERANCE:
                return candidate
            skip = 1
        candidate += skip
        del path[:skip]


def one_set(library: ClipLibrary) -> ClipLibrary:
    """The library's first set alone: the warm-up and set-up sweep."""
    first = ClipLibrary()
    first.add_set(next(iter(library)))
    return first


def study_kwargs(workload: Workload, study_seed: int) -> Dict[str, object]:
    """``run_study`` arguments besides library and seed."""
    kwargs: Dict[str, object] = {"jobs": workload.jobs}
    if workload.fast_path:
        kwargs["fast_path"] = FlowLevelConfig()
    if workload.burst_loss_repair:
        kwargs["scenario"] = build_scenario("burst-loss", study_seed)
        kwargs["repair"] = RepairConfig()
    return kwargs


def run_digests(results: StudyResults) -> Dict[str, str]:
    """One digest per pair run over its ``study_surface`` entries."""
    surfaces = study_surface(results)
    return {run.label: hashlib.sha256("".join(
        surfaces[f"run[{run.label}].{part}"]
        for part in ("trace", "stats", "meta")).encode()).hexdigest()[:32]
        for run in results}


def render_figures(results: StudyResults, tracer=None) -> None:
    """Every paper artifact, generated and rendered as a user sees it."""
    for figure_id, generate in ALL_FIGURES.items():
        if tracer is None:
            generate(results).render()
        else:
            tracer.call(f"experiments.figures.{figure_id}:generate",
                        lambda: generate(results).render())


class PairClock:
    """Wall time of each pair run, and the machine's speed during it,
    measured around the public ``run_pair_experiment``.

    The wrapper goes where the sequential loop and the pool workers look
    the function up, and the durations and speed samples land in
    anonymous shared mappings made before any worker forks, so both
    executions are measured the same way (``progress=`` heartbeats would
    start a manager process per parallel study and carry no times).
    Each pair run samples into its own slot of ``sampler``; the slot
    after them is for figure renders.
    """

    def __init__(self, library: ClipLibrary) -> None:
        self._slots = {(clip_set.number, pair.band): index for index,
                       (clip_set, pair) in enumerate(library.all_pairs())}
        self._seconds = memoryview(
            mmap.mmap(-1, 8 * len(self._slots))).cast("d")
        self.pair_slots = list(range(len(self._slots)))
        self.figures_slot = len(self._slots)
        self.sampler = Sampler(len(self._slots) + 1)

    def install(self) -> None:
        original = runner.run_pair_experiment
        slots, seconds, sampler = self._slots, self._seconds, self.sampler

        def timed(clip_set, pair, *args, **kwargs):
            slot = slots[clip_set.number, pair.band]
            sampler.on(slot)
            started = time.perf_counter()
            try:
                result = original(clip_set, pair, *args, **kwargs)
            finally:
                sampler.off()
            seconds[slot] = time.perf_counter() - started
            return result

        runner.run_pair_experiment = timed
        parallel.run_pair_experiment = timed

    def reset(self) -> None:
        for index in range(len(self._seconds)):
            self._seconds[index] = 0.0
        self.sampler.reset()

    def read(self) -> List[float]:
        values = self._seconds.tolist()
        if min(values) <= 0.0:
            raise RuntimeError("a pair run went untimed")
        return values


class OutputCheck:
    """Counts pair runs whose outputs are wrong.

    Every sweep must reproduce the first sweep's per-run digests; at the
    seed and scale ``expected.json`` was pinned for, they must also equal
    the pinned ones (``inputs_of`` shares a workload's pins).  A
    fast-path sweep must deliver more packets fast than by fallback.
    """

    def __init__(self, name: str, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.reference: Optional[Dict[str, str]] = None
        self.pinned: Optional[Dict[str, str]] = None
        expected = json.loads(EXPECTED.read_text())
        entry = expected["workloads"].get(workload.inputs_of or name)
        if (seed == expected["seed"] and entry is not None
                and entry["scale"] == workload.scale):
            self.pinned = entry["runs"]

    def sweep(self, results: StudyResults, what: str) -> None:
        digests = run_digests(results)
        if self.reference is None:
            self.reference = digests
        labels = set(self.reference) | set(self.pinned or ()) | set(digests)
        for label in sorted(labels):
            self.attempted += 1
            digest = digests.get(label)
            if digest is None:
                self._fail(f"{what}: run {label} missing")
            elif digest != self.reference.get(label):
                self._fail(f"{what}: run {label} digest {digest} differs "
                           f"from the first sweep's")
            elif self.pinned is not None and digest != self.pinned.get(label):
                self._fail(f"{what}: run {label} digest {digest} != pinned "
                           f"{self.pinned.get(label)}")
        if self.workload.fast_path:
            fast = sum(run.fastpath.packets_fast for run in results)
            fallback = sum(run.fastpath.packets_fallback for run in results)
            if fast <= fallback:
                self.failed += len(results)
                self.problems.append(f"{what}: fast path delivered {fast} "
                                     f"packets, fallback {fallback}")

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest reaped child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    library = build_table1_library(duration_scale=workload.scale)
    study_seed = choose_study_seed(seed, library)
    kwargs = study_kwargs(workload, study_seed)
    clock = PairClock(library)
    clock.install()
    run_study(one_set(library), seed=study_seed, min_parallel_runs=0,
              **kwargs)
    check = OutputCheck(name, workload, seed)
    sampler = clock.sampler
    samples: Dict[str, List[float]] = {
        key: [] for key in ("study_s", "study_wall_s", "speed",
                            "packets_per_s", "figures_s", "figures_wall_s",
                            "pair_run_s")}
    budget = seconds / 2 if trace else seconds
    started = time.perf_counter()
    while True:
        gc.collect()
        clock.reset()
        sweep_started = time.perf_counter()
        results = run_study(library, seed=study_seed, **kwargs)
        study_wall_s = time.perf_counter() - sweep_started
        study_s, speed = sampler.reference_seconds(
            study_wall_s, clock.pair_slots, workload.jobs)
        for _ in range(FIGURE_RENDERS):
            sampler.reset()
            sampler.on(clock.figures_slot)
            figures_started = time.perf_counter()
            render_figures(results)
            figures_wall_s = time.perf_counter() - figures_started
            sampler.off()
            samples["figures_wall_s"].append(figures_wall_s)
            samples["figures_s"].append(sampler.reference_seconds(
                figures_wall_s, [clock.figures_slot])[0])
        samples["study_s"].append(study_s)
        samples["study_wall_s"].append(study_wall_s)
        samples["speed"].append(speed)
        samples["pair_run_s"].extend(clock.read())
        packets = sum(len(run.trace) for run in results)
        samples["packets_per_s"].append(packets / study_s)
        check.sweep(results, f"sweep {len(samples['study_s'])}")
        del results
        if time.perf_counter() - started >= budget:
            break

    layers = None
    if trace:
        sampler.enabled = False
        layers = traced_sweep(library, study_seed, kwargs, workload.jobs,
                              samples, check)
    parallel.shutdown_pool()

    measured = {
        "study_s": statistics.median(samples["study_s"]),
        "packets_per_s": statistics.median(samples["packets_per_s"]),
        "figures_s": statistics.median(samples["figures_s"]),
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {metric: {"value": value, "unit": END_TO_END[metric]}
               for metric, value in measured.items()}
    document = {"workload": name, "seed": seed, "study_seed": study_seed,
                "trace": int(trace), "correct": check.failed == 0,
                "attempted": check.attempted, "failed": check.failed,
                "problems": check.problems[:20], "metrics": metrics,
                "samples": samples}
    if layers is not None:
        document["metrics"] = layers["metrics"]
        document["layers"] = layers
    return document


def traced_sweep(library: ClipLibrary, study_seed: int,
                 kwargs: Dict[str, object], jobs: int,
                 samples: Dict[str, List[float]],
                 check: OutputCheck) -> dict:
    """One sweep plus figures under the layer ledger (``layers.py``)."""
    from layers import (ATTACHED, STUDY_SITE, WINDOW_SITE, Ledger, Tracer,
                        report)
    from repro.telemetry.core import Telemetry

    tracer = Tracer()
    tracer.install()
    if jobs > 1:
        # Fork the workers again, now with the wrappers in place.
        parallel.shutdown_pool()
    run_study(one_set(library), seed=study_seed, min_parallel_runs=0,
              telemetry=Telemetry(profiler=tracer.profiler, sinks=[]),
              **kwargs)
    gc.collect()
    tracer.reset()
    telemetry = Telemetry(profiler=tracer.profiler, sinks=[])

    def window():
        started = time.perf_counter()
        results = tracer.call(STUDY_SITE, run_study, library,
                              seed=study_seed, telemetry=telemetry, **kwargs)
        study_s = time.perf_counter() - started
        render_figures(results, tracer)
        return results, study_s

    results, study_s = tracer.call(WINDOW_SITE, window)
    tracer.uninstall()
    workers = Ledger()
    for run in results:
        exported = run.__dict__.pop(ATTACHED, None)
        if exported is not None:
            workers.absorb(exported)
    result_bytes = (sum(len(pickle.dumps(run)) for run in results)
                    if jobs > 1 else 0)
    check.sweep(results, "traced sweep")
    return report(tracer.ledger, workers, jobs=jobs, study_s=study_s,
                  untraced=samples, result_bytes=result_bytes)


def pin() -> dict:
    """Digests of every workload's first sweep at the default seed."""
    pinned: Dict[str, dict] = {}
    for name, workload in WORKLOADS.items():
        library = build_table1_library(duration_scale=workload.scale)
        study_seed = choose_study_seed(DEFAULT_SEED, library)
        results = run_study(library, seed=study_seed,
                            **study_kwargs(workload, study_seed))
        runs = run_digests(results)
        if workload.inputs_of:
            if runs != pinned[workload.inputs_of]["runs"]:
                raise RuntimeError(f"{name} disagrees with "
                                   f"{workload.inputs_of}")
            continue
        pinned[name] = {"scale": workload.scale, "study_seed": study_seed,
                        "runs": runs}
    parallel.shutdown_pool()
    return {"seed": DEFAULT_SEED, "workloads": pinned}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    measure_args = modes.add_parser("measure")
    measure_args.add_argument("--workload", required=True,
                              choices=sorted(WORKLOADS))
    measure_args.add_argument("--seed", type=int, required=True)
    measure_args.add_argument("--seconds", type=float, required=True)
    measure_args.add_argument("--trace", type=int, choices=(0, 1),
                              required=True)
    modes.add_parser("pin")
    args = parser.parse_args(argv)
    if args.mode == "pin":
        EXPECTED.write_text(json.dumps(pin(), indent=1, sort_keys=True)
                            + "\n")
    else:
        print(json.dumps(measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
