"""Process-pool study execution.

Every pair run of a sweep is an independent simulation fully determined
by ``seed + index``, so the Table 1 corpus parallelizes embarrassingly:
fan the runs out across worker processes, longest first, then merge
everything back *in library order* so the study is bit-for-bit the
sequential one.

The pool adds no per-run logic of its own.  Each worker calls the same
per-run body the sequential loop does
(:func:`~repro.experiments.runner.run_index`), and the parent takes
the futures, in library order, through the same collection loop
(:func:`~repro.experiments.runner.collect_runs`), which also sends the
progress heartbeats.  Four things make the merge exact rather than
approximate:

* **Submitted by work, collected by index.**  Runs go to the pool in
  :func:`~repro.experiments.runner.work_order`, by descending
  packet-hop work, so the longest run starts first instead of last;
  there is one future per library index, and the parent reads
  ``futures[i]`` for ``i`` in library order.  Which worker ran a run,
  and when it finished, never reaches what the parent merges.  Only
  heartbeat timing shows the order: run 0 is often submitted late, so
  the first DONE waits for it and the rest follow in bursts.
* **Conditions are derived, not threaded.**  Run ``i`` samples its
  network conditions from ``RandomStreams(seed + i)`` (see
  :func:`~repro.experiments.runner.study_conditions`), so a worker
  needs nothing from the parent but the index.
* **Telemetry snapshots, not a shared facade.**  The parent's facade
  binds the simulator clock as a closure and cannot cross a process
  boundary; each worker instead runs under its own registry / event
  capture / span recorder (scoped with the same ``run=<label>`` the
  sequential loop would set) and ships a picklable
  :class:`~repro.telemetry.core.TelemetrySnapshot` home.  Merging the
  snapshots in library order reproduces the sequential facade exactly:
  counters add into disjoint ``run``-labelled keys, events replay
  through the parent bus and take its sequence numbers, and span ids
  rebase into the contiguous blocks a shared recorder would have
  assigned (the runs' capture records are rebased to match).  When
  the spec streams, each worker also builds its own per-run
  :class:`~repro.telemetry.streaming.StreamingSummary`: every summary
  has one fixed shape, so the parent needs to send no template and
  merges what comes home as it is.
* **The profiler stays home.**  Its numbers are wall-clock and
  per-process; a parallel study simply does not profile workers.

The one deliberate difference from sequential execution: ``Packet.uid``
is a process-local diagnostic counter (two sequential same-seed studies
in one process already disagree on it), so uids in a parallel study's
traces differ from a sequential study's.  Nothing downstream keys on
them across runs.

**The pool persists.**  Workers fork once and are reused across
``run_study`` calls: on small sweeps the fork/import warmup used to eat
most of the parallel win (BENCH_substrate.json), so the executor lives
at module level and every study ships its :class:`_WorkerSpec` (the
study's :class:`~repro.experiments.spec.RunSpec` plus the parent
telemetry's shape) with the tasks instead of baking it into the pool
initializer.  A new worker
count replaces the pool; :func:`shutdown_pool` (also ``repro pool
shutdown``, and an ``atexit`` hook) tears it down explicitly, and
:func:`pool_info` reports reuse for the study timing line.

**A dead worker costs a retry, not the study.**  One worker that dies
breaks the whole executor: every future without a result fails with
``BrokenProcessPool``, and so does every later ``submit``, also when
the worker died while the persistent pool was idle between studies.
The first such failure in a study drops the pool, forks a fresh one,
and resubmits every run that has no result yet, in the same work
order; a run is fully determined by its index, so the re-run is the
run.  ``StudyResults.execution`` says how many runs were re-run.  A
second failure in the same study raises, and leaves no broken pool
behind for the next study.
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.experiments.progress import ProgressCallback
from repro.experiments.runner import (
    RunOutcome,
    StudyResults,
    collect_runs,
    run_index,
    work_order,
)
from repro.experiments.spec import RunSpec

if TYPE_CHECKING:  # pragma: no cover - imported where a pool is made
    from concurrent.futures import Future, ProcessPoolExecutor

    from repro.telemetry.core import Telemetry
    from repro.telemetry.streaming import StreamingSummary


@dataclass(frozen=True)
class _WorkerSpec:
    """Everything a worker needs, shipped with every task."""

    #: The study, with its library resolved; every config in it is pure
    #: data, so workers rebuild controllers and directors from it.
    run: RunSpec
    #: Parent facade shape, mirrored per worker: a registry is always
    #: built when the parent has one; event capture and span recording
    #: only when the parent would actually consume them.
    metrics: bool
    events: bool
    spans: bool


def _worker_telemetry(spec: _WorkerSpec) -> Optional[Telemetry]:
    """A fresh facade mirroring the parent's shape (never its profiler),
    or ``None`` when the parent has none.

    Event capture uses one *unbounded* memory sink: the parent replays
    the stream through its own (possibly bounded) sinks afterwards, so
    dropping anything here would diverge from a sequential run.
    """
    if not spec.metrics:
        return None
    from repro.telemetry.core import Telemetry
    from repro.telemetry.sinks import MemorySink, NullSink
    from repro.telemetry.spans import SpanRecorder

    sink = MemorySink(capacity=None) if spec.events else NullSink()
    return Telemetry(sinks=[sink],
                     spans=SpanRecorder() if spec.spans else None)


def _run_index(spec: _WorkerSpec, index: int) -> RunOutcome:
    """Pair run ``index`` in this worker: the shared per-run body, plus
    the snapshot of the worker's facade.

    The spec rides along with every task (rather than a pool
    initializer) so one persistent pool can serve studies with
    different configurations back to back.
    """
    telemetry = _worker_telemetry(spec)
    result, _, per_run = run_index(spec.run, index, telemetry)
    if telemetry is None:
        return result, None, per_run
    telemetry.clear_context()
    return result, telemetry.snapshot(), per_run


def _pool_context():
    """Prefer fork (cheap, inherits sys.path); fall back to the default."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


# ----------------------------------------------------------------------
# The persistent pool
# ----------------------------------------------------------------------
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_STUDIES = 0  # studies served by the current pool (1 = cold)


def _ensure_pool(workers: int) -> ProcessPoolExecutor:
    """The shared executor, (re)built only when the size changes."""
    global _POOL, _POOL_WORKERS, _POOL_STUDIES
    if _POOL is not None and _POOL_WORKERS != workers:
        shutdown_pool()
    if _POOL is None:
        from concurrent.futures import ProcessPoolExecutor

        _POOL = ProcessPoolExecutor(max_workers=workers,
                                    mp_context=_pool_context())
        _POOL_WORKERS = workers
        _POOL_STUDIES = 0
    _POOL_STUDIES += 1
    return _POOL


def pool_info() -> Dict[str, int]:
    """Live pool state: ``workers`` (0 = no pool) and ``studies`` served."""
    return {"workers": _POOL_WORKERS if _POOL is not None else 0,
            "studies": _POOL_STUDIES if _POOL is not None else 0}


def shutdown_pool() -> bool:
    """Tear the persistent pool down; True if one was running."""
    global _POOL, _POOL_WORKERS, _POOL_STUDIES
    if _POOL is None:
        return False
    _POOL.shutdown(wait=True)
    _POOL = None
    _POOL_WORKERS = 0
    _POOL_STUDIES = 0
    return True


atexit.register(shutdown_pool)


def run_study_parallel(spec: RunSpec, telemetry: Optional[Telemetry],
                       jobs: int,
                       stream: Optional[StreamingSummary] = None,
                       progress: Optional[ProgressCallback] = None
                       ) -> StudyResults:
    """Fan a sweep's pair runs across ``jobs`` worker processes.

    Called by :func:`~repro.experiments.runner.run_spec` when
    ``jobs > 1``, with ``spec.library`` resolved; produces results
    identical to the sequential path (same runs in the same order, same
    merged telemetry, same streaming-summary bytes, same heartbeats).
    Runs are submitted longest first and collected in library order;
    the worker pool outlives the call, and one dead worker costs a
    re-run of the lost runs on a fresh pool (see module docstring).

    Raises:
        BrokenProcessPool: if a worker dies again after the re-run.
    """
    from concurrent.futures.process import BrokenProcessPool

    pairs = spec.library.all_pairs()
    worker_spec = _WorkerSpec(
        run=spec, metrics=telemetry is not None,
        events=telemetry is not None and telemetry.bus.active,
        spans=telemetry is not None and telemetry.spans is not None)
    order = work_order(spec.library, spec.seed)
    futures: Dict[int, Future] = {}
    rerun: List[int] = []

    def submit(indices: List[int]) -> None:
        pool = _ensure_pool(min(jobs, len(pairs)))
        for index in indices:
            futures[index] = pool.submit(_run_index, worker_spec, index)

    def resubmit() -> None:
        # A dead worker poisons the whole executor: fork a fresh one,
        # once, for every run still without a result.
        shutdown_pool()
        rerun.extend(index for index in order
                     if not _has_result(futures.get(index)))
        submit(rerun)

    def outcome(index: int) -> RunOutcome:
        if not rerun:
            try:
                return futures[index].result()
            except BrokenProcessPool:
                resubmit()
        return futures[index].result()

    try:
        try:
            submit(order)
        except BrokenProcessPool:  # a worker died while the pool was idle
            resubmit()
        results = collect_runs(spec, outcome, telemetry=telemetry,
                               stream=stream, progress=progress)
    except BrokenProcessPool:
        # Drop the broken executor so the next study forks a fresh one
        # instead of failing forever.
        shutdown_pool()
        raise
    results.execution = f"parallel jobs={jobs}"
    if rerun:
        results.execution += (f", {len(rerun)} of {len(pairs)} runs re-run "
                              f"on a fresh pool after a worker died")
    return results


def _has_result(future: Optional[Future]) -> bool:
    """Whether ``future`` was submitted and finished with a result, not
    an exception."""
    return (future is not None and future.done()
            and future.exception() is None)
