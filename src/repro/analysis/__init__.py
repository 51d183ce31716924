"""Analysis toolkit: the statistics behind every figure.

Everything the paper's Section III computes from traces and tracker
logs lives here: PDF/CDF estimation (Figures 1, 2, 6–9), interarrival
series and their first-of-group denoising (Figures 8–9), normalization
by the mean (Figures 7, 9), fragmentation percentages (Figure 5),
bandwidth and frame-rate timelines and band summaries (Figures 10,
13–15), buffering-phase detection (Figure 11), second-order polynomial
trend fits (Figure 3), and ASCII rendering for the benchmark harness.
"""

from repro.analysis.bandwidth import bandwidth_series
from repro.analysis.buffering import (
    BufferingAnalysis,
    detect_buffering_phase,
)
from repro.analysis.compare import KsResult, ks_statistic, ks_test
from repro.analysis.distributions import (
    cdf,
    histogram,
    pdf,
    percentile,
    summarize,
)
from repro.analysis.fragmentation import (
    FragmentationPoint,
    fragmentation_sweep_point,
)
from repro.analysis.framerate import BandSummary, summarize_by_band
from repro.analysis.interarrival import (
    first_of_group_interarrivals,
    interarrival_times,
    normalized_interarrivals,
)
from repro.analysis.jitter import (
    interarrival_jitter,
    rtp_jitter,
    rtp_jitter_series,
)
from repro.analysis.normalize import coefficient_of_variation, normalize_by_mean
from repro.analysis.timeseries import (
    autocorrelation,
    dominant_period,
    periodicity_score,
)
from repro.analysis.trends import PolynomialTrend, fit_polynomial_trend
from repro.analysis.report import (
    ascii_plot,
    format_table,
    render_cdf,
)

__all__ = [
    "BandSummary",
    "BufferingAnalysis",
    "FragmentationPoint",
    "PolynomialTrend",
    "ascii_plot",
    "autocorrelation",
    "bandwidth_series",
    "cdf",
    "dominant_period",
    "periodicity_score",
    "coefficient_of_variation",
    "detect_buffering_phase",
    "first_of_group_interarrivals",
    "fit_polynomial_trend",
    "format_table",
    "fragmentation_sweep_point",
    "histogram",
    "KsResult",
    "interarrival_jitter",
    "ks_statistic",
    "ks_test",
    "interarrival_times",
    "normalize_by_mean",
    "rtp_jitter",
    "rtp_jitter_series",
    "normalized_interarrivals",
    "pdf",
    "percentile",
    "render_cdf",
    "summarize",
    "summarize_by_band",
]
