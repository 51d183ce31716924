"""Figure 12: packets received by network vs. application layers.

For a MediaPlayer stream: "The operating system receives packets in
regular intervals of 100 ms, while the MediaPlayer application receives
packets in groups of 10, once per second" — the interleaving signature
only MediaTracker could observe.
"""

from __future__ import annotations

import statistics

from repro.errors import ExperimentError
from repro.experiments.figures.base import FigureResult
from repro.experiments.runner import StudyResults
from repro.media.library import RateBand

WINDOW_START = 2.0
WINDOW_LENGTH = 4.0


def generate(study: StudyResults) -> FigureResult:
    high_runs = study.by_band(RateBand.HIGH)
    if not high_runs:
        raise ExperimentError("study has no high-band run for Figure 12")
    run = high_runs[0]
    receipts = run.wmp_stats.receipts
    if not receipts:
        raise ExperimentError("MediaTracker recorded no receipts")
    origin = receipts[0].network_time
    window = [r for r in receipts
              if WINDOW_START <= r.network_time - origin
              < WINDOW_START + WINDOW_LENGTH]
    base = sum(1 for r in receipts
               if r.network_time - origin < WINDOW_START)
    result = FigureResult(
        figure_id="fig12",
        title="Packets Received by Network vs. Application Layers "
              f"(set {run.set_number} WMP clip, {WINDOW_LENGTH:.0f}s window)",
        series={
            "network_layer": [
                (r.network_time - origin, float(base + index))
                for index, r in enumerate(window)],
            "application_layer": [
                (r.app_time - origin, float(base + index))
                for index, r in enumerate(window)],
        })
    network_gaps = [b.network_time - a.network_time
                    for a, b in zip(window, window[1:])]
    app_instants = sorted({r.app_time for r in window})
    app_gaps = [b - a for a, b in zip(app_instants, app_instants[1:])]
    batch_sizes = [sum(1 for r in window if r.app_time == instant)
                   for instant in app_instants]
    interior = batch_sizes[1:-1] if len(batch_sizes) > 2 else batch_sizes
    if len(app_instants) < 2:
        # A short clip's window: no release interval to average.
        result.findings.append(
            f"window too sparse to average: {len(window)} receipts in "
            f"fewer than two application batches")
        return result
    result.findings.append(
        f"network receipt interval: "
        f"{statistics.fmean(network_gaps) * 1000:.0f} ms (paper: 100 ms)")
    result.findings.append(
        f"application release interval: "
        f"{statistics.fmean(app_gaps):.2f} s (paper: once per second)")
    result.findings.append(
        f"packets per application batch: "
        f"{statistics.fmean(interior):.1f} (paper: groups of 10)")
    return result
