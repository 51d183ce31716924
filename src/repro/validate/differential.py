"""Differential oracle: one study, three execution paths, zero diffs.

PR 3 made study execution polymorphic — the same seeded sweep can run
sequentially, fan out across worker processes, or come back from the
persistent disk cache — on the promise that all three produce the same
results.  This module *checks* that promise instead of assuming it: it
runs the study each way and diffs the complete observable surface —
uid-free trace CSV, tracker logs, sampled conditions, ping/tracert
reports, stability verdicts, the telemetry summary, the canonical
event stream, and the span forest — via sha256 digests.

Any divergence is a bug in the execution machinery (a worker merging
runs out of order, a pickle round-trip dropping a field, dict-order
nondeterminism reaching an export), exactly the class of silent
corruption a figure reader could never spot.  ``repro validate
--study`` runs this and exits non-zero on the first mismatch.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

from repro.capture import serialize
from repro.experiments.cache import (
    CACHE_DIR_ENV,
    CACHE_ENV,
    _disk_load,
    _disk_store,
)
from repro.experiments.runner import PairRunResult, StudyResults, run_spec
from repro.experiments.spec import RunSpec
from repro.players import logging as tracker_logging

if TYPE_CHECKING:  # pragma: no cover - imported where a surface needs them
    from repro.telemetry.core import Telemetry


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fresh_telemetry(spec: Optional[RunSpec] = None) -> Telemetry:
    """A facade capturing everything ``spec``'s study emits, unbounded.

    Span tracing is left off under the fast path, which refuses it (the
    director skips the per-hop events spans are built from).
    """
    from repro.telemetry.core import Telemetry
    from repro.telemetry.sinks import MemorySink
    from repro.telemetry.spans import SpanRecorder

    fast = spec is not None and spec.fast_path is not None
    spans = None if fast else SpanRecorder()
    return Telemetry(sinks=[MemorySink(capacity=None)], spans=spans)


def run_surface(run: PairRunResult) -> Dict[str, str]:
    """One pair run's observables as text, keyed by surface name.

    The uid-free trace CSV, both tracker logs, and the experiment
    metadata (set, band, clips, servers, conditions, ping RTTs, tracert
    hops, stability verdict).  :func:`study_surface` digests these; the
    fast-path equivalence harness compares them undigested, so a
    failure there stays diffable.
    """
    return {
        "trace": serialize.dumps(run.trace),
        "stats": (tracker_logging.dumps(run.real_stats)
                  + tracker_logging.dumps(run.wmp_stats)),
        "meta": repr((run.set_number, run.genre, run.band,
                      run.conditions, run.real_clip, run.wmp_clip,
                      str(run.real_server), str(run.wmp_server),
                      run.ping_before, run.ping_after,
                      run.tracert, run.tracert_after, run.stability)),
    }


def study_surface(study: StudyResults,
                  telemetry: Optional[Telemetry] = None) -> Dict[str, str]:
    """Digest every observable of a study, keyed by surface name.

    Per pair run: :func:`run_surface`, as ``run[<label>].<surface>``.
    Study-wide, when a telemetry facade is supplied: the canonical
    summary JSON, the encoded event stream, and the span forest
    export.  Cache round-trips carry runs (plus any streaming summary)
    only, so their surfaces simply lack the ``telemetry.*`` keys; the
    ``streaming.summary`` surface rides wherever the study's online
    fold does — including through the pickle round-trip.
    """
    surfaces: Dict[str, str] = {}
    if study.streaming is not None:
        surfaces["streaming.summary"] = _digest(study.streaming.to_json())
    for run in study:
        for name, text in run_surface(run).items():
            surfaces[f"run[{run.label}].{name}"] = _digest(text)
    if telemetry is not None:
        from repro.telemetry.exporters import to_json
        from repro.telemetry.sinks import encode_event
        from repro.telemetry.trace_export import spans_jsonl

        surfaces["telemetry.summary"] = _digest(to_json(telemetry))
        surfaces["telemetry.events"] = _digest(
            "\n".join(encode_event(event)
                      for event in telemetry.memory_events()))
        if telemetry.spans is not None:
            surfaces["telemetry.spans"] = _digest(spans_jsonl(telemetry.spans))
    return surfaces


def _brief(value: object) -> str:
    """A sha256 hex digest's first 12 digits; any other value's repr."""
    if isinstance(value, str) and len(value) == 64:
        return value[:12]
    return repr(value)


def diff_surfaces(expected: Mapping[str, object],
                  actual: Mapping[str, object], against: str,
                  partial: bool = False) -> List[str]:
    """Every key where ``actual`` disagrees with ``expected``, one line
    each, in key order; empty when they agree.

    ``against`` names the side ``expected`` came from (``sequential``,
    ``golden``).  A key only ``expected`` has is reported missing
    unless ``partial`` (a cache round trip carries no ``telemetry.*``
    surfaces); a key only ``actual`` has is always reported.
    """
    lines: List[str] = []
    for key in sorted(set(expected) | set(actual)):
        if key not in actual:
            if not partial:
                lines.append(f"{key}: missing, {against} has "
                             f"{_brief(expected[key])}")
        elif key not in expected:
            lines.append(f"{key}: {_brief(actual[key])}, {against} has none")
        elif actual[key] != expected[key]:
            lines.append(f"{key}: {_brief(actual[key])} != {against} "
                         f"{_brief(expected[key])}")
    return lines


@dataclass
class DifferentialReport:
    """The three legs' surface digests and every disagreement found."""

    legs: Dict[str, Dict[str, str]] = field(default_factory=dict)
    divergences: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        lines = []
        reference = self.legs.get("sequential", {})
        for name, surfaces in self.legs.items():
            shared = [key for key in surfaces if key in reference]
            matching = sum(surfaces[key] == reference[key] for key in shared)
            lines.append(f"leg {name}: {len(surfaces)} surfaces"
                         + ("" if name == "sequential" else
                            f", {matching}/{len(shared)} match sequential"))
        if self.ok:
            lines.append("all execution paths agree")
        else:
            lines.append(f"{len(self.divergences)} divergence"
                         f"{'s' if len(self.divergences) != 1 else ''}:")
            lines.extend(f"  ! {entry}" for entry in self.divergences)
        return "\n".join(lines)


def run_differential(spec: RunSpec, jobs: int = 2) -> DifferentialReport:
    """Run ``spec``'s study three ways and diff every surface.

    Every leg folds an online streaming summary (``spec.stream`` is
    forced on) so the ``streaming.summary`` surface is always compared.

    Legs:

    1. **sequential** — the reference: in-process, ``jobs=1``.
    2. **parallel** — the same parameters fanned across ``jobs``
       worker processes, telemetry folded back post-hoc.
    3. **cache** — the sequential results pushed through the disk
       cache's pickle round-trip (store + load under an isolated
       temporary directory; no third simulation).

    Returns:
        A :class:`DifferentialReport`; ``report.ok`` is False on any
        digest mismatch.
    """
    report = DifferentialReport()
    spec = replace(spec, stream=True)

    telemetry_seq = _fresh_telemetry(spec)
    study_seq = run_spec(spec, telemetry=telemetry_seq, jobs=1)
    reference = study_surface(study_seq, telemetry_seq)
    report.legs["sequential"] = reference

    # The streaming fold's own oracle: refolding the *fully buffered*
    # event stream (plus the span forest) into one fresh summary must
    # reproduce the per-run merged summary byte for byte — the bounded
    # fold lost nothing the unbounded buffer kept.
    if study_seq.streaming is not None:
        from repro.telemetry.streaming import fold_events

        refold = fold_events(telemetry_seq.memory_events())
        if telemetry_seq.spans is not None:
            refold.fold_spans(telemetry_seq.spans.spans)
        if refold.to_json() != study_seq.streaming.to_json():
            report.divergences.append(
                f"streaming: merged per-run fold (fingerprint "
                f"{study_seq.streaming.fingerprint()}) != refold of the "
                f"buffered stream ({refold.fingerprint()})")

    telemetry_par = _fresh_telemetry(spec)
    study_par = run_spec(spec, telemetry=telemetry_par, jobs=max(2, jobs),
                         min_parallel_runs=0)
    parallel = study_surface(study_par, telemetry_par)
    report.legs["parallel"] = parallel
    report.divergences.extend(
        f"parallel: {line}"
        for line in diff_surfaces(reference, parallel, "sequential"))

    # Cache leg: push the sequential sweep through the disk layer's
    # pickle round-trip in an isolated directory so the user's real
    # cache is neither consulted nor polluted.
    key = spec.fingerprint()
    saved = {name: os.environ.get(name)
             for name in (CACHE_ENV, CACHE_DIR_ENV)}
    with tempfile.TemporaryDirectory(prefix="repro-validate-") as tmp:
        os.environ[CACHE_DIR_ENV] = tmp
        os.environ.pop(CACHE_ENV, None)
        try:
            _disk_store(spec, key, study_seq)
            study_cached = _disk_load(key)
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
    if study_cached is None:
        report.legs["cache"] = {}
        report.divergences.append(
            "cache: stored sweep did not load back")
    else:
        cached = study_surface(study_cached)
        report.legs["cache"] = cached
        # Cache entries carry runs and the streaming summary but no
        # telemetry facade; compare what round-tripped and let the
        # telemetry.* keys pass.
        report.divergences.extend(
            f"cache: {line}"
            for line in diff_surfaces(reference, cached, "sequential",
                                      partial=True))
    return report
