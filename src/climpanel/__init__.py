"""climpanel: regional climate norms, anomalies, panel local projections,
and panel ARDL long-run effects for quarterly price data.

Importing the package loads no submodule (and so no numpy): each public
name is imported from its submodule on first use (PEP 562). This lets the
command-line entry point set OpenBLAS's thread count before numpy loads.
"""
import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it. The public surface is the
# pipeline: its calls, the specs a caller builds and the records they
# return. The building blocks stay importable from their modules.
_HOMES = {
    **dict.fromkeys((
        "ARDLResult", "LongRunEffect", "LongRunTable", "annualize",
        "estimate_ardl",
    ), "ardl"),
    "attach_anomaly_features": "climate",
    **dict.fromkeys((
        "PanelDataset", "RegionSummary", "load_panel", "merge_panels",
        "summary_stats", "write_panel",
    ), "dataset"),
    **dict.fromkeys((
        "HorizonFailure", "ImpulseResponse", "LPResult", "estimate_irf",
    ), "localproj"),
    "FitResult": "regress",
    **dict.fromkeys((
        "ARDLSpec", "HACSpec", "LPSpec", "PanelSchema", "QuarterIndex",
        "quarter_range",
    ), "specs"),
}

__all__ = list(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
