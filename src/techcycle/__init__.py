"""Technology substitution and lifecycle analytics.

Fits power-law substitution models between competing technologies'
revenue series, detects lifecycle events (begin, peak, end), and measures
cycle asymmetry; ships a reconstructed recorded-music revenue dataset and
a synthetic-scenario lab for validating the estimator.

The public names below are imported from their submodules on first use
(PEP 562), so importing one submodule does not load the others.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "cycle": (
        "CrossoverResult", "CycleAggregate", "CycleEvents", "CycleSummary",
        "aggregate_cycles", "column_stats", "crossover_year", "cycle_metrics",
        "detect_events",
    ),
    "growth": (
        "LogisticFit", "LogisticParams", "OddsRelation", "Regime", "SubstitutionFit",
        "allometric_coefficients", "classify_regime", "fit_logistic", "fit_substitution",
        "implied_exponent", "log_odds", "logistic_value", "odds_relation",
    ),
    "market_data": (
        "CpiTable", "RevenueRecord", "RevenueSeries", "TechnologyGroup",
        "adjust_inflation", "aggregate_group", "merge_series", "parse_revenue_table",
        "positive_overlap_window",
    ),
    "regress": ("OlsFit", "ols_simple", "significance_stars", "t_p_value"),
    "synthlab": (
        "RecoveryReport", "SyntheticScenario", "generate_scenario",
        "recovery_experiment", "scenario_from_mapping",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
