"""The reproduction scorecard: every paper claim as a machine check.

EXPERIMENTS.md narrates paper-versus-measured; this module *executes*
it.  Each check is a named predicate over the study (or a regenerated
artifact) encoding one claim from the paper, with the measured value
reported alongside.  ``python -m repro scorecard`` prints the table and
exits nonzero if any claim fails — a one-command answer to "does this
reproduction still reproduce?".
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.buffering import buffering_ratio_vs_playout
from repro.analysis.distributions import cdf, cdf_at, percentile
from repro.analysis.interarrival import (
    first_of_group_interarrivals,
    normalized_interarrivals,
)
from repro.capture.reassembly import fragmentation_percent
from repro.errors import AnalysisError, ExperimentError
from repro.experiments.runner import StudyResults
from repro.media.library import RateBand
from repro.servers.realserver import buffering_ratio


@dataclass(frozen=True)
class ScoreRow:
    """One scorecard line: the artifact, what it states (a paper claim
    or a then-vs-now metric), and its rendered cells.

    A claim row also carries its verdict, shown as a last PASS/FAIL
    cell; a metric row has none.
    """

    artifact: str
    label: str
    cells: Tuple[str, ...]
    passed: Optional[bool] = None

    def row(self) -> List[str]:
        verdict = () if self.passed is None else (
            "PASS" if self.passed else "FAIL",)
        return [self.artifact, self.label, *self.cells, *verdict]


def render_rows(headers: Sequence[str], rows: Sequence[ScoreRow],
                footer: str) -> str:
    """A scorecard as a text table, a blank line, and its footer."""
    from repro.analysis.report import format_table

    return f"{format_table(headers, [r.row() for r in rows])}\n\n{footer}"


Check = Callable[[StudyResults], Tuple[str, bool]]


def _check(artifact: str, claim: str):
    """Decorator registering a claim check."""

    def wrap(function: Check):
        _CHECKS.append((artifact, claim, function))
        return function

    return wrap


_CHECKS: List[Tuple[str, str, Check]] = []


# ----------------------------------------------------------------------
# Network conditions (Figures 1-2)
# ----------------------------------------------------------------------
@_check("fig01", "median RTT near 40 ms, max <= 160 ms")
def _rtt(study):
    ms = [rtt * 1000 for rtt in study.rtt_samples()]
    median = percentile(ms, 50)
    return (f"median {median:.0f} ms, max {max(ms):.0f} ms",
            25 <= median <= 60 and max(ms) <= 160)


@_check("fig02", "hops mostly 15-20")
def _hops(study):
    hops = study.hop_samples()
    share = sum(1 for h in hops if 15 <= h <= 20) / len(hops)
    return f"{share * 100:.0f}% in 15-20", share >= 0.4


@_check("fig01", "ping loss near 0%")
def _loss(study):
    loss = study.loss_percent()
    return f"{loss:.2f}%", loss < 1.0


# ----------------------------------------------------------------------
# Rates (Figure 3, Table 1)
# ----------------------------------------------------------------------
@_check("table1", "Real encodes below WMP for every pair")
def _encodings(study):
    ok = all(run.real_clip.encoded_kbps < run.wmp_clip.encoded_kbps
             for run in study)
    return f"{len(study)} pairs", ok


@_check("fig03", "WMP plays back at the encoding rate")
def _wmp_identity(study):
    offsets = [run.wmp_stats.average_playback_kbps
               - run.wmp_clip.encoded_kbps for run in study]
    mean = statistics.fmean(offsets)
    return f"mean offset {mean:+.1f} Kbps", abs(mean) < 15.0


@_check("fig03", "Real plays back above the encoding rate")
def _real_above(study):
    offsets = [run.real_stats.average_playback_kbps
               - run.real_clip.encoded_kbps for run in study]
    mean = statistics.fmean(offsets)
    return f"mean offset {mean:+.1f} Kbps", mean > 10.0


# ----------------------------------------------------------------------
# Fragmentation (Figures 4-5)
# ----------------------------------------------------------------------
@_check("fig05", "no WMP fragmentation below 100 Kbps")
def _frag_low(study):
    lows = [fragmentation_percent(run.wmp_flow()) for run in study
            if run.wmp_clip.encoded_kbps < 100]
    worst = max(lows) if lows else 0.0
    return f"max {worst:.1f}%", worst == 0.0


@_check("fig05", "~66% WMP fragmentation near 300 Kbps")
def _frag_300(study):
    values = [fragmentation_percent(run.wmp_flow()) for run in study
              if 280 <= run.wmp_clip.encoded_kbps <= 350]
    if not values:
        return "no clips in band", False
    mean = statistics.fmean(values)
    return f"{mean:.1f}%", abs(mean - 66.0) < 5.0


@_check("fig05", "Real never fragments")
def _frag_real(study):
    worst = max(fragmentation_percent(run.real_flow()) for run in study)
    return f"max {worst:.1f}%", worst == 0.0


# ----------------------------------------------------------------------
# CBR-ness (Figures 6-9)
# ----------------------------------------------------------------------
@_check("fig09", "WMP interarrival CDF steps at 1.0, Real's is gradual")
def _gap_cdfs(study):
    real_all, wmp_all = [], []
    for run in study:
        real_all.extend(normalized_interarrivals(
            first_of_group_interarrivals(run.real_flow())))
        wmp_all.extend(normalized_interarrivals(
            first_of_group_interarrivals(run.wmp_flow())))
    wmp_points = cdf(wmp_all)
    real_points = cdf(real_all)
    wmp_mass = cdf_at(wmp_points, 1.1) - cdf_at(wmp_points, 0.9)
    real_mass = cdf_at(real_points, 1.1) - cdf_at(real_points, 0.9)
    return (f"mass at 1.0: WMP {wmp_mass * 100:.0f}%, "
            f"Real {real_mass * 100:.0f}%",
            wmp_mass > 0.8 and real_mass < 0.5)


@_check("core", "profiles classify both products correctly")
def _classify(study):
    ok = all(run.wmp_profile().classify() == "mediaplayer"
             and run.real_profile().classify() == "realplayer"
             for run in study)
    return f"{2 * len(study)} flows", ok


# ----------------------------------------------------------------------
# Buffering (Figures 10-11)
# ----------------------------------------------------------------------
@_check("fig11", "Real buffering ratio ~3 low, ~1 very high, decreasing")
def _ratios(study):
    points = sorted(
        (run.real_clip.encoded_kbps,
         buffering_ratio_vs_playout(
             run.real_stats.bandwidth_timeline(interval=1.0),
             run.real_clip.encoded_kbps))
        for run in study)
    low = [ratio for kbps, ratio in points if kbps < 56]
    very_high = [ratio for kbps, ratio in points if kbps > 500]
    ok = (bool(low) and max(low) > 2.5
          and bool(very_high) and very_high[0] < 1.5)
    return (f"low max {max(low):.2f}, very-high {very_high[0]:.2f}",
            ok)


@_check("fig10", "bursting Real streams finish before WMP")
def _early_finish(study):
    relevant = [run for run in study
                if buffering_ratio(run.real_clip.encoded_kbps) > 1.2]
    ok = all(run.real_stats.streaming_duration
             < run.wmp_stats.streaming_duration for run in relevant)
    return f"{len(relevant)} bursting pairs", ok


# ----------------------------------------------------------------------
# Application layer (Figures 12-15)
# ----------------------------------------------------------------------
@_check("fig12", "WMP app receives ~10-packet batches once per second")
def _interleave(study):
    high = study.by_band(RateBand.HIGH)
    if not high:
        return "no high-band run", False
    receipts = high[0].wmp_stats.receipts
    instants = sorted({r.app_time for r in receipts})
    gaps = [b - a for a, b in zip(instants, instants[1:])]
    sizes = [sum(1 for r in receipts if r.app_time == t)
             for t in instants][1:-1]
    mean_gap = statistics.fmean(gaps)
    mean_size = statistics.fmean(sizes)
    return (f"{mean_size:.1f} pkts / {mean_gap:.2f} s",
            abs(mean_gap - 1.0) < 0.05 and 8 <= mean_size <= 12)


@_check("fig14", "low band: Real's frame rate clearly above WMP's")
def _fps_low(study):
    lows = study.by_band(RateBand.LOW)
    real = statistics.fmean(r.real_stats.average_fps for r in lows)
    wmp = statistics.fmean(r.wmp_stats.average_fps for r in lows)
    return f"Real {real:.1f} vs WMP {wmp:.1f} fps", real > wmp + 3.0


@_check("fig14", "high band: similar frame rates, full motion")
def _fps_high(study):
    highs = study.by_band(RateBand.HIGH)
    real = statistics.fmean(r.real_stats.average_fps for r in highs)
    wmp = statistics.fmean(r.wmp_stats.average_fps for r in highs)
    return (f"Real {real:.1f} vs WMP {wmp:.1f} fps",
            abs(real - wmp) < 5.0 and min(real, wmp) >= 24.0)


# ----------------------------------------------------------------------
# Viewer experience (Section IV synthesis)
# ----------------------------------------------------------------------
@_check("qoe", "per-viewer QoE scores in a sane band")
def _qoe(study):
    scores = [stats.qoe().score for run in study
              for stats in (run.real_stats, run.wmp_stats)]
    mean = statistics.fmean(scores)
    return (f"mean {mean:.1f}, min {min(scores):.1f} of 100",
            all(0.0 <= s <= 100.0 for s in scores) and mean >= 60.0)


# ----------------------------------------------------------------------
# Methodology (Section II.D)
# ----------------------------------------------------------------------
@_check("method", "every run's path verified stable")
def _stability(study):
    stable = sum(1 for run in study if run.stability.stable)
    return f"{stable}/{len(study)} stable", stable == len(study)


def run_scorecard(study: StudyResults) -> List[ScoreRow]:
    """Execute every registered claim against a study.

    Raises:
        ExperimentError: for an empty study.
        AnalysisError: naming the claim, when ``study`` is too short
            for its check (an empty sample included).
    """
    if len(study) == 0:
        raise ExperimentError("empty study")
    results = []
    for artifact, claim, function in _CHECKS:
        try:
            measured, passed = function(study)
        except (AnalysisError, statistics.StatisticsError) as exc:
            raise AnalysisError(f"{artifact}: {claim}: {exc}") from exc
        results.append(ScoreRow(artifact=artifact, label=claim,
                                cells=(measured,), passed=passed))
    return results


def render_scorecard(results: List[ScoreRow]) -> str:
    """The scorecard as a text table with a verdict line."""
    passed = sum(1 for r in results if r.passed)
    return render_rows(
        ("artifact", "claim", "measured", "verdict"), results,
        f"{passed}/{len(results)} paper claims reproduce"
        + ("" if passed == len(results) else "  <-- FAILURES"))
