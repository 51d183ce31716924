"""Figure 10: bandwidth vs. time for one clip set (set 1, all four clips).

"When the streaming begins, RealPlayer transmits at a higher data rate
than the playout rate until the delay buffer is filled... The streaming
duration is shorter for RealPlayer... In contrast, MediaPlayer always
buffers at the same rate as it plays back the clip."
"""

from __future__ import annotations

from repro.analysis.buffering import detect_buffering_phase
from repro.errors import AnalysisError, ExperimentError
from repro.experiments.figures.base import FigureResult
from repro.experiments.runner import StudyResults
from repro.media.library import RateBand

SET_NUMBER = 1


def _burst(series, timed: bool) -> str:
    """One clip's burst finding, or why its series has none."""
    try:
        analysis = detect_buffering_phase(series)
    except AnalysisError as exc:
        return f"burst n/a: {exc}"
    length = f" for {analysis.buffering_duration:.0f}s" if timed else ""
    return f"burst {analysis.ratio:.1f}x{length}"


def generate(study: StudyResults) -> FigureResult:
    runs = [run for run in study if run.set_number == SET_NUMBER
            and run.band in (RateBand.HIGH, RateBand.LOW)]
    if not runs:
        runs = study.by_band(RateBand.HIGH)[:1] + study.by_band(
            RateBand.LOW)[:1]
    if not runs:
        raise ExperimentError("study has no runs for Figure 10")
    result = FigureResult(
        figure_id="fig10",
        title=f"Bandwidth vs. Time (set {runs[0].set_number})")
    findings = []
    for run in runs:
        real_series = run.real_stats.bandwidth_timeline(interval=1.0)
        wmp_series = run.wmp_stats.bandwidth_timeline(interval=1.0)
        real_label = run.real_clip.label()
        wmp_label = run.wmp_clip.label()
        result.series[real_label] = real_series
        result.series[wmp_label] = wmp_series
        findings.append(
            f"{real_label}: {_burst(real_series, timed=True)}, stream "
            f"{run.real_stats.streaming_duration:.0f}s")
        findings.append(
            f"{wmp_label}: {_burst(wmp_series, timed=False)}, stream "
            f"{run.wmp_stats.streaming_duration:.0f}s of "
            f"{run.wmp_clip.duration:.0f}s clip")
        findings.append(
            f"  Real finishes before WMP: "
            f"{run.real_stats.streaming_duration < run.wmp_stats.streaming_duration}"
            " (paper: yes)")
    result.findings = findings
    return result
