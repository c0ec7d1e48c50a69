"""climpanel: regional climate norms, anomalies, panel local projections,
and panel ARDL long-run effects for quarterly price data."""

__version__ = "0.1.0"

from .ardl import (
    ARDLResult,
    ARDLSpec,
    LongRunEffect,
    LongRunTable,
    annualize,
    ardl_suite,
    build_ardl_design,
    estimate_ardl,
    select_lag_bic,
)
from .climate import (
    AnomalySeries,
    NormParams,
    SeasonalShock,
    SignedAnomalyPair,
    anomaly,
    attach_anomaly_features,
    historical_norm,
    seasonal_shock,
    sign_split,
    weighted_aggregate,
)
from .dataset import (
    PanelDataset,
    PanelSchema,
    QuarterIndex,
    RegionSummary,
    TransformSpec,
    load_panel,
    merge_panels,
    quarter_range,
    subset,
    summary_stats,
    transform,
    write_panel,
)
from .localproj import (
    ImpulseResponse,
    IRFRow,
    LPResult,
    LPSpec,
    build_lp_design,
    estimate_irf,
    irf_table,
)
from .regress import (
    Design,
    FitResult,
    HACSpec,
    RegressionSpec,
    build_design,
    confidence_band,
    default_bandwidth,
    ols,
    significance_stars,
    vcov_classical,
    vcov_driscoll_kraay,
    with_driscoll_kraay,
    within_transform,
)

__all__ = [
    "ARDLResult", "ARDLSpec", "LongRunEffect", "LongRunTable", "annualize",
    "ardl_suite", "build_ardl_design", "estimate_ardl", "select_lag_bic",
    "AnomalySeries", "NormParams", "SeasonalShock", "SignedAnomalyPair",
    "anomaly", "attach_anomaly_features", "historical_norm", "seasonal_shock",
    "sign_split", "weighted_aggregate",
    "PanelDataset", "PanelSchema", "QuarterIndex", "RegionSummary",
    "TransformSpec", "load_panel", "merge_panels", "quarter_range", "subset",
    "summary_stats", "transform", "write_panel",
    "ImpulseResponse", "IRFRow", "LPResult", "LPSpec", "build_lp_design",
    "estimate_irf", "irf_table",
    "Design", "FitResult", "HACSpec", "RegressionSpec", "build_design",
    "confidence_band", "default_bandwidth", "ols", "significance_stars",
    "vcov_classical", "vcov_driscoll_kraay", "with_driscoll_kraay",
    "within_transform",
]
