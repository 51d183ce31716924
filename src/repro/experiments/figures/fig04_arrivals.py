"""Figure 4: packet arrivals vs. time.

One second of packet sequence numbers for a high-rate pair (the paper
shows the 217 Kbps Real clip against the 250 Kbps WMP clip of set 5,
seconds 30-31).  The WMP series steps in groups — one UDP packet plus a
constant number of IP fragments per tick — while the Real series climbs
irregularly.
"""

from __future__ import annotations

from repro.capture.reassembly import group_size_pattern
from repro.errors import ExperimentError
from repro.experiments.figures.base import FigureResult
from repro.experiments.runner import PairRunResult, StudyResults
from repro.media.library import RateBand

#: The paper plots set 5's high pair over this window.
SET_NUMBER = 5
WINDOW_START = 30.0
WINDOW_LENGTH = 1.0


def pick_run(study: StudyResults,
             set_number: int = SET_NUMBER) -> PairRunResult:
    """The run Figure 4 plots (set 5 high; falls back to any high run)."""
    for run in study:
        if run.set_number == set_number and run.band == RateBand.HIGH:
            return run
    high_runs = study.by_band(RateBand.HIGH)
    if not high_runs:
        raise ExperimentError("study has no high-band run for Figure 4")
    return high_runs[0]


def generate(study: StudyResults) -> FigureResult:
    run = pick_run(study)
    result = FigureResult(
        figure_id="fig04",
        title="Packet Arrivals vs. Time (set "
              f"{run.set_number}, high pair, {WINDOW_START:.0f}-"
              f"{WINDOW_START + WINDOW_LENGTH:.0f}s)")
    wmp_flow = run.wmp_flow()
    for name, flow in (("real", run.real_flow()), ("wmp", wmp_flow)):
        origin = flow[0].time if len(flow) else 0.0
        # Clamp the window into the stream (reduced-duration studies
        # have streams shorter than the paper's 30 s offset).
        start = min(WINDOW_START, max(0.0, flow.duration / 2.0))
        window = flow.between(origin + start,
                              origin + start + WINDOW_LENGTH)
        sequence_base = sum(1 for r in flow if r.time < origin + start)
        result.series[f"{name}_arrivals"] = [
            (record.time - origin, float(sequence_base + index))
            for index, record in enumerate(window)]
    wmp_groups = group_size_pattern(wmp_flow)
    interior = wmp_groups[:-1] if len(wmp_groups) > 1 else wmp_groups
    constant = len(set(interior)) == 1
    result.findings.append(
        f"WMP groups have a constant packet count: {constant} "
        f"(size {interior[0] if interior else 0}; paper: constant, "
        "1 UDP + fragments)")
    real_count = len(result.series["real_arrivals"])
    wmp_count = len(result.series["wmp_arrivals"])
    result.findings.append(
        f"packets in the 1 s window: Real={real_count}, WMP={wmp_count}")
    return result
