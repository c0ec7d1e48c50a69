"""Cumulative-outcome local projections for climate shocks.

For each horizon h the outcome log(P[t+h]) - log(P[t-1]) is regressed on
the shock at t plus lagged one-quarter log changes of P, with region and
time fixed effects; the shock coefficient traced over h = 0..H is the
impulse response. Horizons are estimated by separate regressions, each with
Driscoll-Kraay standard errors whose default bandwidth grows with h to
cover the moving-average overlap the cumulative outcome induces.

A spec names one outcome and one or more shocks. Shocks that share a
sample at a horizon are fitted in one exact Frisch-Waugh-Lovell pass: the
outcome and the lag controls are absorbed and factored once for all of
them, and each shock's slope and standard error equal those of its own
regression.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import regress  # within_transform is looked up per call, as ols does
from ._record import Record
from .dataset import PanelDataset, checked_log, shift
from .errors import ClimPanelError, SpecError
from .regress import (
    Design,
    HACSpec,
    _block_design,
    _check_lag_order,
    _regressor_block,
    check_window,
    confidence_band,
    default_bandwidth,
    focal_driscoll_kraay,
    ols,
    window_slice,
    with_driscoll_kraay,
)

DEFAULT_HORIZONS = tuple(range(9))


class LPSpec(Record):
    """Local-projection settings for one outcome and its shocks."""

    outcome: str
    shocks: tuple[str, ...]
    horizons: tuple[int, ...] = DEFAULT_HORIZONS
    lags: int = 8
    fixed_effects: tuple[str, ...] = ("region", "time")
    hac: HACSpec | None = None   # bandwidth None: max(rule, h) per horizon
    level: float = 0.90
    sample: tuple | None = None

    def __post_init__(self):
        # a bare string would otherwise run once per character
        if isinstance(self.shocks, str) or not self.shocks:
            raise SpecError("shocks must be a nonempty tuple of names")
        if len(set(self.shocks)) != len(self.shocks):
            raise SpecError("shock names must be unique")
        if not self.horizons or len(set(self.horizons)) != len(self.horizons):
            raise SpecError("horizons must list at least one horizon, "
                            "each once")
        if any(h < 0 for h in self.horizons):
            raise SpecError("horizons must be nonnegative")
        if self.lags < 0:
            raise SpecError("lags must be >= 0")
        if not 0.0 < self.level < 1.0:
            raise SpecError("level must be in (0, 1)")
        check_window(self.sample)


class ImpulseResponse(Record):
    horizon: int
    estimate: float
    se: float
    band: tuple[float, float]
    nobs: int


class HorizonFailure(Record):
    horizon: int
    message: str


class LPResult(Record):
    """Per-horizon impulse responses for one (shock, outcome) pair."""

    shock: str
    outcome: str
    responses: tuple[ImpulseResponse, ...]
    failures: tuple[HorizonFailure, ...] = ()


@lru_cache(maxsize=1)
def _regressors(ds: PanelDataset, outcome: str, shocks, lags: int, sample):
    """log P, log P[t-1] and the regressor block of an outcome, which its
    horizons share read-only; datasets are immutable, so the last are kept."""
    log_p = checked_log(ds, outcome)
    x_named = [(shock, ds.values(shock)) for shock in shocks]
    _check_lag_order(lags, len(ds.regions), ds.time, sample)
    lag1 = shift(log_p, 1)
    dlog = log_p - lag1
    x_named += [(f"dlog_{outcome}_lag{n}", shift(dlog, n))
                for n in range(1, lags + 1)]
    return log_p, lag1, _regressor_block(x_named, ds.time, sample)


def build_lp_design(ds: PanelDataset, spec: LPSpec, horizon: int) -> Design:
    """Design for one horizon.

    Outcome: log(P[t+h]) - log(P[t-1]). Regressors: spec.shocks at t, then
    lags 1..spec.lags of the one-quarter log change of P. Rows needing
    leads or lags outside the panel are dropped listwise.
    """
    log_p, lag1, block = _regressors(  # tuples hash, as the cache needs
        ds, spec.outcome, tuple(spec.shocks), spec.lags,
        spec.sample and tuple(spec.sample))
    return _block_design(
        shift(log_p, -horizon) - lag1, block, ds.regions, ds.time,
        fixed_effects=spec.fixed_effects, window=spec.sample,
    )


def _horizon_hac(spec: LPSpec, design: Design, horizon: int) -> HACSpec:
    hac = spec.hac or HACSpec(None)
    if hac.bandwidth is not None:
        return hac
    # T: the periods of the absorbed design, left after the singleton drop
    periods = design.time_codes - design.time_codes.min()
    n_periods = np.count_nonzero(np.bincount(periods))
    return hac.replace(bandwidth=max(default_bandwidth(n_periods), horizon))


def _sample_groups(ds: PanelDataset, spec: LPSpec) -> list[list[int]]:
    """Positions in spec.shocks grouped by the shock's finite cells inside the
    sample window, which with the shared outcome and lags fix the
    listwise-deleted sample. A shock that cannot be read forms its own
    group, so reading it fails for it alone."""
    try:
        cols = window_slice(ds.time, spec.sample)
    except ClimPanelError:
        cols = slice(None)  # every design build fails alike
    groups: dict = {}
    for i, shock in enumerate(spec.shocks):
        try:
            key = np.isfinite(ds.values(shock)[:, cols]).tobytes()
        except ClimPanelError:
            key = i
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _response(fit, level: float, j: int, horizon: int) -> ImpulseResponse:
    lo, hi = confidence_band(fit, level)
    return ImpulseResponse(
        horizon=horizon, estimate=float(fit.coef[j]), se=float(fit.se[j]),
        band=(float(lo[j]), float(hi[j])), nobs=fit.nobs,
    )


def _fit_alone(ds: PanelDataset, spec: LPSpec, shock: str, horizon: int):
    """One shock's own regression; raises the error ols or the covariance
    gives for it."""
    design = regress.within_transform(
        build_lp_design(ds, spec.replace(shocks=(shock,)), horizon))
    fit = ols(design)
    fit = with_driscoll_kraay(fit, _horizon_hac(spec, design, horizon))
    return _response(fit, spec.level, fit.names.index(shock), horizon)


def _fit_group(ds: PanelDataset, spec: LPSpec, horizon: int) -> list:
    """An ImpulseResponse or a HorizonFailure for each shock of spec, whose
    shocks share one sample. A shock the batched fit cannot take, or every
    shock when the batched fit fails, is refitted alone, so its failure
    message is the one its own regression gives."""
    try:
        design = regress.within_transform(build_lp_design(ds, spec, horizon))
        fit = focal_driscoll_kraay(design, len(spec.shocks),
                                   _horizon_hac(spec, design, horizon))
    except ClimPanelError:
        fit = None
    out = []
    for j, shock in enumerate(spec.shocks):
        if fit is not None and fit.ok[j]:
            out.append(_response(fit, spec.level, j, horizon))
            continue
        try:
            out.append(_fit_alone(ds, spec, shock, horizon))
        except ClimPanelError as exc:
            # kept as text: the exception's traceback holds design blocks
            out.append(HorizonFailure(horizon, f"{type(exc).__name__}: {exc}"))
    return out


def estimate_irf(ds: PanelDataset, spec: LPSpec) -> tuple[LPResult, ...]:
    """Estimate the impulse response of every shock of spec at every
    requested horizon: one LPResult per shock, in order. Results equal
    those of one call per shock up to rounding.

    Horizons are independent regressions; a failing horizon is recorded in
    LPResult.failures while the others are still returned, and a shock
    whose every horizon failed has only failures. Nothing is raised. The
    horizons of a sample group run together, sharing one regressor block.
    """
    results = {}
    for group in _sample_groups(ds, spec):
        group_spec = spec.replace(shocks=tuple(spec.shocks[i] for i in group))
        fits = [_fit_group(ds, group_spec, h) for h in spec.horizons]
        for shock, entries in zip(group_spec.shocks, zip(*fits)):
            results[shock] = LPResult(
                shock=shock, outcome=spec.outcome,
                responses=tuple(e for e in entries
                                if isinstance(e, ImpulseResponse)),
                failures=tuple(e for e in entries
                               if isinstance(e, HorizonFailure)),
            )
    return tuple(results[shock] for shock in spec.shocks)
