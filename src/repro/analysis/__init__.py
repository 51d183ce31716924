"""Analysis toolkit: the statistics behind every figure.

Everything the paper's Section III computes from traces and tracker
logs lives here: PDF/CDF estimation (Figures 1, 2, 6–9), interarrival
series and their first-of-group denoising (Figures 8–9), normalization
by the mean (Figures 7, 9), fragmentation percentages (Figure 5),
bandwidth and frame-rate timelines and band summaries (Figures 10,
13–15), buffering-phase detection (Figure 11), second-order polynomial
trend fits (Figure 3), and ASCII rendering for the benchmark harness.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bandwidth": ("bandwidth_series",),
    ".buffering": ("BufferingAnalysis", "detect_buffering_phase"),
    ".compare": ("KsResult", "ks_statistic", "ks_test"),
    ".distributions": ("cdf", "histogram", "pdf", "percentile", "summarize"),
    ".fragmentation": ("FragmentationPoint", "fragmentation_sweep_point"),
    ".framerate": ("BandSummary", "summarize_by_band"),
    ".interarrival": ("first_of_group_interarrivals", "interarrival_times",
                      "normalized_interarrivals"),
    ".jitter": ("interarrival_jitter", "rtp_jitter", "rtp_jitter_series"),
    ".normalize": ("coefficient_of_variation", "normalize_by_mean"),
    ".timeseries": ("autocorrelation", "dominant_period", "periodicity_score"),
    ".trends": ("PolynomialTrend", "fit_polynomial_trend"),
    ".report": ("ascii_plot", "format_table", "render_cdf"),
})
