"""Privacy analysis (Eqs. 1-5), Monte-Carlo validation, adversary model,
and the §5 analytical cost model that regenerates the paper's figures.

Each name below is loaded from its submodule on first use: the serving
stack imports ``repro.analysis.stats`` for its latency series, and must
not pull in the experiments, which import the database and the baselines
(which import ``stats`` in turn).
"""

import importlib

_HOME = {
    "TrackingAdversary": "adversary",
    **dict.fromkeys((
        "AnalyticalCostModel", "ConfigurationPoint", "TwoPartyCostModel",
        "figure4_series", "figure5_series", "figure6_series",
        "figure7_series", "headline_numbers",
    ), "costmodel"),
    **dict.fromkeys(("LandingExperiment", "measure_landing_distribution"),
                    "empirical"),
    **dict.fromkeys((
        "FrequencyAnalyst", "FrequencyExperimentResult",
        "StaticEncryptedStore", "run_frequency_experiment",
    ), "frequency"),
    **dict.fromkeys((
        "DisplacementSeries", "measure_displacement",
        "measure_location_mixing",
    ), "mixing"),
    **dict.fromkeys(("ascii_bar_chart", "ascii_plot"), "plots"),
    **dict.fromkeys((
        "ChiSquareResult", "LatencySeries", "chi_square_test",
        "fit_geometric", "spearman_rank_correlation", "wilson_interval",
    ), "stats"),
    **dict.fromkeys((
        "empirical_ratio", "landing_entropy_bits",
        "location_landing_distribution", "max_landing_probability",
        "min_landing_probability", "offset_landing_probabilities",
        "privacy_ratio", "total_variation_from_uniform",
    ), "privacy"),
    **dict.fromkeys(("EnginePoint", "run_engine_sweep", "write_csv"),
                    "sweep"),
}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
