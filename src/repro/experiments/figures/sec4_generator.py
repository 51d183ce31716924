"""Section IV: simulating video flows from the measured distributions.

The validation loop the paper implies but never runs: fit turbulence
profiles from the study's *measured* flows, generate *synthetic* flows
with the Section IV models at the same encoding rates, re-fit profiles
from the synthetic traces, and check that the synthetic traffic
preserves the findings — fragmentation share, CBR-ness, burst ratio,
and product classification.  A synthetic flow is fitted from its
datagram schedule (``fit_schedule``), to the values its trace gives.
"""

from __future__ import annotations

import statistics

from repro.analysis.compare import ks_statistic
from repro.core.fitting import fit_flow, fit_schedule
from repro.core.generator import generate_flow
from repro.errors import ExperimentError
from repro.experiments.figures.base import FigureResult
from repro.experiments.runner import StudyResults
from repro.media.clip import PlayerFamily


def generate(study: StudyResults) -> FigureResult:
    if len(study) == 0:
        raise ExperimentError("empty study")
    result = FigureResult(
        figure_id="sec4",
        title="Simulation of Video Flows (Section IV round trip)",
        headers=("flow", "kind", "frag %", "ADU cv", "gap cv", "burst",
                 "KS size", "KS gap", "classified"))
    matches = 0
    total = 0
    size_distances = []
    gap_distances = []
    for run in study:
        cases = (
            ("real", PlayerFamily.REAL, run.real_clip, run.real_flow(),
             run.real_stats),
            ("wmp", PlayerFamily.WMP, run.wmp_clip, run.wmp_flow(),
             run.wmp_stats),
        )
        for name, family, clip, measured_flow, stats in cases:
            # One fit per flow, which also hands back the samples the KS
            # distances compare.
            measured = fit_flow(measured_flow, clip.encoded_kbps,
                                label=clip.label(), stats=stats)
            synthetic_flow = generate_flow(family, clip.encoded_kbps,
                                           clip.duration,
                                           seed=run.set_number * 100)
            synthetic = fit_schedule(synthetic_flow,
                                     f"synthetic {clip.label()}")
            # Distribution agreement: KS distance between measured and
            # synthetic packet sizes and datagram-group interarrivals.
            ks_size = ks_statistic(measured.sizes, synthetic.sizes)
            ks_gap = ks_statistic(measured.gaps, synthetic.gaps)
            size_distances.append(ks_size)
            gap_distances.append(ks_gap)
            for kind, profile in (("measured", measured.profile),
                                  ("synthetic", synthetic.profile)):
                result.rows.append([
                    f"{run.label}-{name}", kind,
                    profile.fragment_percent, profile.adu_size_cv,
                    profile.interarrival_cv, profile.burst_ratio,
                    ks_size if kind == "synthetic" else "",
                    ks_gap if kind == "synthetic" else "",
                    profile.classify()])
            total += 1
            if synthetic.profile.classify() == measured.profile.classify():
                matches += 1
    result.findings.append(
        f"synthetic flows classify as their product for {matches}/{total} "
        "flows (goal: all)")
    result.findings.append(
        f"median KS distance, packet sizes: "
        f"{statistics.median(size_distances):.3f} (0 = identical)")
    result.findings.append(
        f"median KS distance, group interarrivals: "
        f"{statistics.median(gap_distances):.3f}")
    return result
