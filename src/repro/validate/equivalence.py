"""Fast-path vs packet-level equivalence harness.

The flow-level fast path (:mod:`repro.netsim.flowlevel`) earns its
speedup with an analytic delivery model; this module is the proof
obligation that comes with it.  It sweeps the same experiment through
both execution paths and compares the player-visible observables:

* **Exact legs** — zero jitter, zero loss, ``strict=True``, and the
  run reports ``reals_parked == 0`` (no real packet ever waited out a
  committed train): every accepted schedule is provably exact, so the
  full differential surfaces (trace CSV, tracker logs, experiment
  metadata) must be *byte-identical* between fast path and packet
  level.  When reals were parked the same leg downgrades itself to
  the tolerant comparison — honestly, per run, not by guesswork.
* **Refusal legs** — conditions the fast path refuses outright (lossy
  middle link, ABR-less faults): every packet falls back, so the runs
  must again be byte-identical, and the fallback summary must say why.
* **Tolerant legs** — default (chained) mode, or Gaussian jitter:
  trains may chain through real serializer backlog, shifting
  deliveries by transmission-time-scale amounts.  Player-visible
  scalar metrics must then agree within the declared per-metric
  tolerances below.

The grid cases are data (:data:`DEFAULT_GRID`); ``tests/equivalence/``
parametrizes over them, and CI runs a small-scale sweep of the same
harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.conditions import NetworkConditions
from repro.experiments.runner import PairRunResult, run_pair_experiment
from repro.netsim.flowlevel import FlowLevelConfig
from repro.validate.differential import run_surface

#: Relative tolerance for count/byte metrics in tolerant legs.
COUNT_REL_TOL = 0.02
#: Absolute tolerance (seconds) for timing metrics in tolerant legs.
TIME_ABS_TOL = 0.25
#: Relative tolerance for rate metrics in tolerant legs.
RATE_REL_TOL = 0.05


@dataclass(frozen=True)
class ConditionCase:
    """One grid cell: conditions plus the equivalence mode they earn.

    ``exact=True`` runs the fast path in strict mode and demands
    byte-identical surfaces; ``exact=False`` runs the default chained
    mode and compares scalar metrics within tolerances.
    """

    name: str
    conditions: NetworkConditions
    exact: bool
    #: Substring expected among the fallback reasons (refusal legs
    #: assert the fast path refused for the *right* reason).
    expect_reason: Optional[str] = None


def default_grid(jitter_std: float = 0.0004) -> Tuple[ConditionCase, ...]:
    """The standard conditions grid the equivalence suite sweeps."""
    return (
        ConditionCase(
            name="quiet-exact",
            conditions=NetworkConditions(rtt=0.040, hop_count=17,
                                         loss_probability=0.0,
                                         jitter_std=0.0),
            exact=True),
        ConditionCase(
            name="quiet-chained",
            conditions=NetworkConditions(rtt=0.040, hop_count=17,
                                         loss_probability=0.0,
                                         jitter_std=0.0),
            exact=False),
        ConditionCase(
            name="jittery",
            conditions=NetworkConditions(rtt=0.040, hop_count=17,
                                         loss_probability=0.0,
                                         jitter_std=jitter_std),
            exact=False),
        ConditionCase(
            name="lossy-refused",
            conditions=NetworkConditions(rtt=0.040, hop_count=17,
                                         loss_probability=0.02,
                                         jitter_std=jitter_std),
            # Every train refuses (lossy middle link), so fast == slow
            # exactly even without strict mode.
            exact=True,
            expect_reason="lossy-link"),
        ConditionCase(
            name="long-path",
            conditions=NetworkConditions(rtt=0.120, hop_count=25,
                                         loss_probability=0.0,
                                         jitter_std=0.0),
            exact=True),
    )


DEFAULT_GRID: Tuple[ConditionCase, ...] = default_grid()


def player_metrics(stats) -> Dict[str, float]:
    """The tolerant-leg comparison vector for one player."""
    metrics = {
        "packets_received": float(stats.packets_received),
        "bytes_received": float(stats.bytes_received),
        "frames_played": float(len(stats.frame_plays)),
        "frames_late": float(stats.frames_late),
        "rebuffer_seconds": stats.rebuffer_seconds,
    }
    for name in ("first_media_at", "eos_at", "playout_started_at"):
        value = getattr(stats, name)
        if value is not None:
            metrics[name] = value
    duration = stats.streaming_duration
    if duration is not None:
        metrics["streaming_duration"] = duration
        if duration > 0:
            metrics["average_playback_kbps"] = stats.average_playback_kbps
    return metrics


def _tolerance_for(name: str) -> Tuple[float, float]:
    """``(rel, abs)`` tolerance for a metric, by kind."""
    if name.endswith(("_at", "_seconds", "_duration")):
        return 0.0, TIME_ABS_TOL
    if name.endswith("_kbps"):
        return RATE_REL_TOL, 0.0
    return COUNT_REL_TOL, 2.0


def compare_metrics(fast: Dict[str, float], slow: Dict[str, float],
                    label: str = "") -> List[str]:
    """Mismatch descriptions for two metric vectors (empty = agree)."""
    problems: List[str] = []
    for name in sorted(set(fast) | set(slow)):
        if name not in fast or name not in slow:
            problems.append(f"{label}{name}: present in only one run")
            continue
        a, b = fast[name], slow[name]
        rel, absolute = _tolerance_for(name)
        bound = max(absolute, rel * max(abs(a), abs(b)))
        if abs(a - b) > bound:
            problems.append(f"{label}{name}: fast {a!r} vs packet-level "
                            f"{b!r} (|delta| {abs(a - b):.6g} > "
                            f"tolerance {bound:.6g})")
    return problems


@dataclass
class EquivalenceResult:
    """Outcome of one grid cell's fast-vs-slow comparison."""

    case: ConditionCase
    mismatches: List[str] = field(default_factory=list)
    fast_result: Optional[PairRunResult] = None
    slow_result: Optional[PairRunResult] = None

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        fastpath = (self.fast_result.fastpath
                    if self.fast_result is not None else None)
        note = ""
        if fastpath is not None:
            note = (f" ({fastpath.packets_fast} fast / "
                    f"{fastpath.packets_fallback} fallback)")
        if self.ok:
            return f"{self.case.name}: ok{note}"
        lines = [f"{self.case.name}: {len(self.mismatches)} "
                 f"mismatch{'es' if len(self.mismatches) != 1 else ''}"
                 f"{note}"]
        lines.extend(f"  ! {entry}" for entry in self.mismatches)
        return "\n".join(lines)


def check_case(case: ConditionCase, clip_set, pair,
               seed: int = 2002) -> EquivalenceResult:
    """Run one pair through both paths and compare per the case mode."""
    config = FlowLevelConfig(strict=case.exact)
    fast = run_pair_experiment(clip_set, pair, seed=seed,
                               conditions=case.conditions,
                               fast_path=config)
    slow = run_pair_experiment(clip_set, pair, seed=seed,
                               conditions=case.conditions,
                               fast_path=None)
    result = EquivalenceResult(case=case, fast_result=fast,
                               slow_result=slow)
    summary = fast.fastpath
    if summary is None:
        result.mismatches.append("fast run carries no fastpath summary")
        return result
    if case.expect_reason is not None:
        reasons = dict(summary.fallback_reasons)
        if case.expect_reason not in reasons:
            result.mismatches.append(
                f"expected fallback reason {case.expect_reason!r} "
                f"among {sorted(reasons)}")
        if summary.packets_fast:
            result.mismatches.append(
                f"refusal leg delivered {summary.packets_fast} packets "
                "fast; expected all to fall back")
    elif not summary.packets_fast:
        result.mismatches.append(
            "fast path accepted no trains at all; the leg proves "
            "nothing (fallback reasons: "
            f"{dict(summary.fallback_reasons)})")
    if case.exact and summary.reals_parked == 0:
        # Nothing real ever waited out a committed train, so every
        # accepted schedule was provably exact: demand byte-identity.
        fast_surface = run_surface(fast)
        slow_surface = run_surface(slow)
        for key in fast_surface:
            if fast_surface[key] != slow_surface[key]:
                result.mismatches.append(
                    f"surface {key} diverged (exact leg)")
    else:
        for label, fast_stats, slow_stats in (
                ("real.", fast.real_stats, slow.real_stats),
                ("wmp.", fast.wmp_stats, slow.wmp_stats)):
            result.mismatches.extend(compare_metrics(
                player_metrics(fast_stats), player_metrics(slow_stats),
                label=label))
    return result


def run_equivalence(grid: Tuple[ConditionCase, ...] = DEFAULT_GRID,
                    seed: int = 2002,
                    duration_scale: float = 0.12,
                    ) -> List[EquivalenceResult]:
    """Sweep the grid on one Table-1 pair; used by tests and CI."""
    from repro.experiments.datasets import build_table1_library

    library = build_table1_library(duration_scale=duration_scale)
    clip_set, pair = library.all_pairs()[0]
    return [check_case(case, clip_set, pair, seed=seed)
            for case in grid]
