"""Cumulative-outcome local projections for climate shocks.

For each horizon h the outcome log(P[t+h]) - log(P[t-1]) is regressed on
the shock at t plus lagged one-quarter log changes of P, with region and
time fixed effects; the shock coefficient traced over h = 0..H is the
impulse response. Horizons are estimated by separate regressions, each with
Driscoll-Kraay standard errors whose default bandwidth grows with h to
cover the moving-average overlap the cumulative outcome induces.

Shocks estimated together (estimate_irf's shocks argument) that share a
sample at a horizon are fitted in one exact Frisch-Waugh-Lovell pass: the
outcome and the lag controls are absorbed and factored once for all of
them, and each shock's slope and standard error equal those of its own
regression.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import PanelDataset, QuarterIndex, checked_log, shift
from .errors import ClimPanelError, SpecError
from .regress import (
    Design,
    HACSpec,
    confidence_band,
    default_bandwidth,
    design_from_matrices,
    focal_driscoll_kraay,
    ols,
    significance_stars,
    window_slice,
    with_driscoll_kraay,
)

DEFAULT_HORIZONS = tuple(range(9))


@dataclass(frozen=True)
class LPSpec:
    """Local-projection settings for one (outcome, shock) pair."""

    outcome: str
    shock: str
    horizons: tuple[int, ...] = DEFAULT_HORIZONS
    lags: int = 8
    fixed_effects: tuple[str, ...] = ("region", "time")
    hac: HACSpec | None = None   # bandwidth None: max(rule, h) per horizon
    level: float = 0.90
    sample: tuple | None = None

    def __post_init__(self):
        if any(h < 0 for h in self.horizons):
            raise SpecError("horizons must be nonnegative")
        if self.lags < 0:
            raise SpecError("lags must be >= 0")
        if not 0.0 < self.level < 1.0:
            raise SpecError("level must be in (0, 1)")
        for label in self.sample or ():
            QuarterIndex.parse(label)   # raises SpecError


@dataclass(frozen=True)
class ImpulseResponse:
    horizon: int
    estimate: float
    se: float
    band: tuple[float, float]
    nobs: int


@dataclass(frozen=True)
class HorizonFailure:
    horizon: int
    message: str


@dataclass(frozen=True)
class LPResult:
    """Per-horizon impulse responses for one (shock, outcome) pair."""

    shock: str
    outcome: str
    level: float
    responses: tuple[ImpulseResponse, ...]
    failures: tuple[HorizonFailure, ...] = field(default=())


def build_lp_design(ds: PanelDataset, spec: LPSpec, horizon: int,
                    shocks=None) -> Design:
    """Design for one horizon.

    Outcome: log(P[t+h]) - log(P[t-1]). Regressors: the shocks at t
    (spec.shock unless shocks is given), then lags 1..spec.lags of the
    one-quarter log change of P. Rows needing leads or lags outside the
    panel are dropped listwise.
    """
    log_p = checked_log(ds, spec.outcome)
    y = shift(log_p, -horizon) - shift(log_p, 1)
    dlog = log_p - shift(log_p, 1)
    shocks = (spec.shock,) if shocks is None else shocks
    x_named = [(shock, ds.values(shock)) for shock in shocks]
    x_named += [(f"dlog_{spec.outcome}_lag{n}", shift(dlog, n))
                for n in range(1, spec.lags + 1)]
    return design_from_matrices(
        y, x_named, ds.regions, ds.time,
        fixed_effects=spec.fixed_effects, window=spec.sample,
    )


def _horizon_hac(spec: LPSpec, design: Design, horizon: int) -> HACSpec:
    hac = spec.hac or HACSpec(None)
    if hac.bandwidth is not None:
        return hac
    n_periods = len(np.unique(design.time_codes))
    return replace(hac, bandwidth=max(default_bandwidth(n_periods), horizon))


def _sample_groups(ds: PanelDataset, spec: LPSpec, shocks) -> list[list[int]]:
    """Positions in shocks grouped by the shock's finite cells inside the
    sample window, which with the shared outcome and lags fix the
    listwise-deleted sample. A shock that cannot be read forms its own
    group, so reading it fails for it alone."""
    try:
        cols = window_slice(ds.time, spec.sample)
    except (ClimPanelError, ValueError):
        cols = slice(None)  # every design build fails alike
    groups: dict = {}
    for i, shock in enumerate(shocks):
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
    design = build_lp_design(ds, spec, horizon, (shock,))
    fit = ols(design)
    fit = with_driscoll_kraay(fit, _horizon_hac(spec, design, horizon))
    return _response(fit, spec.level, fit.names.index(shock), horizon)


def _fit_group(ds: PanelDataset, spec: LPSpec, shocks, horizon: int) -> list:
    """An ImpulseResponse or the ClimPanelError for each shock of a group
    sharing one sample. A shock the batched fit cannot take, or every shock
    when the batched fit fails, is refitted alone, so its error is the one
    its own regression gives."""
    try:
        design = build_lp_design(ds, spec, horizon, shocks)
        fit = focal_driscoll_kraay(design, len(shocks),
                                   _horizon_hac(spec, design, horizon))
    except ClimPanelError:
        fit = None
    out = []
    for j, shock in enumerate(shocks):
        if fit is not None and fit.ok[j]:
            out.append(_response(fit, spec.level, j, horizon))
            continue
        try:
            out.append(_fit_alone(ds, spec, shock, horizon))
        except ClimPanelError as exc:
            out.append(exc)
    return out


def estimate_irf(ds: PanelDataset, spec: LPSpec, shocks=None):
    """Estimate the impulse response at every requested horizon.

    Horizons are independent regressions; a failing horizon is recorded in
    LPResult.failures while the others are still returned. Only when every
    horizon fails is the first error re-raised.

    With shocks (a sequence of series names) every shock is estimated in
    place of spec.shock and a tuple of one LPResult per shock is returned,
    in order; a shock whose every horizon failed has only failures, nothing
    is raised. Results equal those of one call per shock up to rounding.
    """
    names = (spec.shock,) if shocks is None else tuple(shocks)
    groups = _sample_groups(ds, spec, names)
    outcomes = [[] for _ in names]   # (horizon, response or error) per shock
    for h in spec.horizons:
        for group in groups:
            fitted = _fit_group(ds, spec, [names[i] for i in group], h)
            for i, out in zip(group, fitted):
                outcomes[i].append((h, out))
    results = []
    for name, pairs in zip(names, outcomes):
        responses = [r for _, r in pairs if isinstance(r, ImpulseResponse)]
        errors = [(h, e) for h, e in pairs if isinstance(e, ClimPanelError)]
        if shocks is None and not responses and errors:
            raise errors[0][1]
        results.append(LPResult(
            shock=name, outcome=spec.outcome, level=spec.level,
            responses=tuple(responses),
            failures=tuple(HorizonFailure(h, f"{type(e).__name__}: {e}")
                           for h, e in errors),
        ))
    return tuple(results) if shocks is not None else results[0]


@dataclass(frozen=True)
class IRFRow:
    shock: str
    outcome: str
    horizon: int
    estimate: float
    se: float
    stars: str


def irf_table(results) -> tuple[IRFRow, ...]:
    """Flatten LP results into rows keyed (shock, outcome, horizon).

    Stars follow the two-sided normal 1/5/10 percent convention.
    """
    if isinstance(results, LPResult):
        results = [results]
    rows = []
    for res in results:
        for r in res.responses:
            rows.append(IRFRow(
                shock=res.shock, outcome=res.outcome, horizon=r.horizon,
                estimate=r.estimate, se=r.se,
                stars=significance_stars(r.estimate, r.se),
            ))
    rows.sort(key=lambda r: (r.shock, r.outcome, r.horizon))
    return tuple(rows)
