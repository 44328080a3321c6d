"""longrun: long-run time-series econometrics.

Library plus CLI for the classic long-run analysis chain on monthly data:
descriptive statistics, correlation, ADF and Phillips-Perron unit-root
tests, VAR lag-order selection, the Johansen cointegration rank test and
pairwise Granger causality.
"""

import importlib

from .descriptive import SummaryStats, correlation, summarize
from .distributions import chi2_sf, f_sf, norm_cdf
from .granger import GrangerResult, granger_test, hypothesis_verdict
from .johansen import JohansenResult, johansen_critical, johansen_test, rank_decision
from .linalg import OlsFit, log_det, ols_fit
from .report import PipelineConfig, Report, render, run_pipeline
from .series import (
    Panel,
    RawSeries,
    Series,
    aggregate_monthly,
    align,
    diff,
    lag_matrix,
    load_csv,
    save_csv,
)
from .unitroot import UnitRootResult, adf_test, mackinnon_critical, mackinnon_pvalue, pp_test
from .varmodel import LagSelectionRow, select_lag

__version__ = "0.1.0"


def __getattr__(name):
    """Load synth on first use of one of its names, so analysis never imports it."""
    if name in ("ProcessSpec", "Rng", "generate"):
        return getattr(importlib.import_module(".synth", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "GrangerResult",
    "JohansenResult",
    "LagSelectionRow",
    "OlsFit",
    "Panel",
    "PipelineConfig",
    "ProcessSpec",
    "RawSeries",
    "Report",
    "Rng",
    "Series",
    "SummaryStats",
    "UnitRootResult",
    "adf_test",
    "aggregate_monthly",
    "align",
    "chi2_sf",
    "correlation",
    "diff",
    "f_sf",
    "generate",
    "granger_test",
    "hypothesis_verdict",
    "johansen_critical",
    "johansen_test",
    "lag_matrix",
    "load_csv",
    "log_det",
    "mackinnon_critical",
    "mackinnon_pvalue",
    "norm_cdf",
    "ols_fit",
    "pp_test",
    "rank_decision",
    "render",
    "run_pipeline",
    "save_csv",
    "select_lag",
    "summarize",
]
