"""Cumulative-outcome local projections for climate shocks.

For each horizon h the outcome log(P[t+h]) - log(P[t-1]) is regressed on
the shock at t plus lagged one-quarter log changes of P, with region and
time fixed effects; the shock coefficient traced over h = 0..H is the
impulse response. Horizons are estimated by separate regressions, each with
Driscoll-Kraay standard errors whose default bandwidth grows with h to
cover the moving-average overlap the cumulative outcome induces. The log
change is taken once, and regress writes its lags into the regressor block.

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
from .errors import ClimPanelError, describe
from .regress import (
    Design,
    _block_design,
    _regressor_block,
    confidence_band,
    default_bandwidth,
    focal_driscoll_kraay,
    ols,
    window_slice,
    with_driscoll_kraay,
)
from .specs import HACSpec, LPSpec


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
    entries = [(shock, ds.values(shock), 0) for shock in shocks]
    lag1 = shift(log_p, 1)
    dlog = log_p - lag1
    entries += [(f"dlog_{outcome}_lag{n}", dlog, n) for n in range(1, lags + 1)]
    return log_p, lag1, _regressor_block(entries, ds.time, sample)


def build_lp_design(ds: PanelDataset, spec: LPSpec, horizon: int) -> Design:
    """Design for one horizon.

    Outcome: log(P[t+h]) - log(P[t-1]). Regressors: spec.shocks at t, then
    lags 1..spec.lags of the one-quarter log change of P. Rows needing
    leads or lags outside the panel are dropped listwise.
    """
    log_p, lag1, block = _regressors(  # tuples hash, as the cache needs
        ds, spec.outcome, tuple(spec.shocks), spec.lags,
        None if spec.sample is None else tuple(spec.sample))
    return _block_design(shift(log_p, -horizon) - lag1, block,
                         fixed_effects=spec.fixed_effects)


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


def _fit_group(ds: PanelDataset, spec: LPSpec, horizon: int) -> list:
    """An ImpulseResponse or a HorizonFailure for each shock of spec, whose
    shocks share one sample, so a design that cannot be built or absorbed
    fails them all alike. A shock the batched fit cannot take, or every
    shock when the batched fit fails, is refitted alone on its columns of
    the group's absorbed design, so its failure message is the one its own
    regression gives: the singleton drop and the absorbed count depend only
    on the region and time codes, not on the columns."""
    n = len(spec.shocks)
    try:
        design = regress.within_transform(build_lp_design(ds, spec, horizon))
    except ClimPanelError as exc:
        # kept as text: the exception's traceback holds design blocks
        return n * [HorizonFailure(horizon, describe(exc))]
    hac = _horizon_hac(spec, design, horizon)
    try:
        fit = focal_driscoll_kraay(design, n, hac)
    except ClimPanelError:
        fit = None
    out = []
    for j in range(n):
        if fit is not None and fit.ok[j]:
            out.append(_response(fit, spec.level, j, horizon))
            continue
        cols = [j, *range(n, len(design.names))]   # shock j and the controls
        own = design.replace(X=design.X[:, cols],
                             names=tuple(design.names[c] for c in cols))
        try:
            own_fit = with_driscoll_kraay(ols(own), hac)
            out.append(_response(own_fit, spec.level, 0, horizon))
        except ClimPanelError as exc:
            out.append(HorizonFailure(horizon, describe(exc)))
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
