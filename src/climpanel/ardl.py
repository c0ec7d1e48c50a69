"""Panel ARDL estimation and long-run climate effects.

The model regresses the one-quarter log change of a price index on its own
lags 1..p and on current-plus-lagged first differences of a block of signed
anomaly regressors, with region fixed effects:

    dy[r,t] = a[r] + sum_l phi_l dy[r,t-l] + sum_l beta_l' dx[r,t-l] + e

The long-run effect of block variable k is theta_k = (sum_l beta_lk) / phi
with phi = 1 - sum_l phi_l; its standard error comes from the delta method
on the joint coefficient covariance. The annualized reading of theta under
an m-year norm is theta * 2 / (m + 1). estimate_ardl fits one (outcome, m)
cell; the ardl command runs the grid of cells.
"""
from __future__ import annotations

import numpy as np

from ._record import Record
from .climate import derived_names
from .dataset import PanelDataset, checked_log, shift
from .errors import SpecError, UnitRootError
from .regress import (
    Design,
    HACSpec,
    _block_design,
    _check_lag_order,
    _regressor_block,
    check_window,
    ols,
    significance_stars,
    with_driscoll_kraay,
)

_PHI_FLOOR = 1e-6


class ARDLSpec(Record):
    """One ARDL cell: outcome, signed-anomaly block, lag order, norm window.

    p = 0 drops the autoregressive lags and keeps only the contemporaneous
    block (then phi = 1 by construction); the pipeline default is p = 4.
    """

    outcome: str
    block: tuple[str, ...]
    p: int = 4
    m: int = 30
    fixed_effects: tuple[str, ...] = ("region",)
    sample: tuple | None = None
    hac: HACSpec | None = None   # None: classical standard errors

    def __post_init__(self):
        if self.p < 0:
            raise SpecError("p must be >= 0")
        if not self.block:
            raise SpecError("block must name at least one regressor")
        if len(set(self.block)) != len(self.block):
            raise SpecError("block names must be unique")
        if self.m < 1:
            raise SpecError("m must be >= 1")
        check_window(self.sample)


def annualize(theta: float, m: int) -> float:
    """Annualized long-run effect theta * 2 / (m + 1)."""
    if m < 1:
        raise SpecError("m must be >= 1")
    return theta * 2.0 / (m + 1.0)


class LongRunEffect(Record):
    variable: str
    theta: float
    se: float
    stars: str
    annualized: float


class LongRunTable(Record):
    """Long-run effects for one (outcome, m) cell, in block order."""

    outcome: str
    m: int
    effects: tuple[LongRunEffect, ...]
    phi: float
    phi_se: float
    phi_stars: str
    nobs: int


class ARDLResult(Record):
    fit: object  # FitResult
    table: LongRunTable


def _lag_name(var: str, lag: int) -> str:
    """Column name of the first difference of var at lag (dy and dx alike)."""
    return f"d_{var}_lag{lag}"


def build_ardl_design(ds: PanelDataset, spec: ARDLSpec) -> Design:
    """Design with dy on dy lags 1..p and block first differences, lags 0..p.

    The block regressors enter in first differences of the (signed, already
    scaled) anomaly series; burn-in NaN cells trim the sample listwise.
    """
    log_y = checked_log(ds, spec.outcome)
    levels = [ds.values(var) for var in spec.block]
    _check_lag_order(spec.p, len(ds.regions), ds.time, spec.sample)
    dy = log_y - shift(log_y, 1)
    x_named = [(_lag_name(spec.outcome, lag), shift(dy, lag))
               for lag in range(1, spec.p + 1)]
    for var, level in zip(spec.block, levels):
        dx = level - shift(level, 1)
        x_named += [(_lag_name(var, lag), shift(dx, lag))
                    for lag in range(0, spec.p + 1)]
    return _block_design(
        dy, _regressor_block(x_named, ds.time, spec.sample),
        ds.regions, ds.time,
        fixed_effects=spec.fixed_effects, window=spec.sample,
    )


def long_run_from_coefficients(
    coef: np.ndarray,
    vcov: np.ndarray,
    names: tuple[str, ...],
    outcome: str,
    block: tuple[str, ...],
    p: int,
    m: int,
    nobs: int,
) -> LongRunTable:
    """Long-run effects and delta-method errors from fitted coefficients.

    theta_k = (sum_l beta_lk) / phi, phi = 1 - sum_l phi_l. The gradient of
    theta_k is 1/phi on each beta_lk and theta_k/phi on each phi_l.
    """
    coef = np.asarray(coef, dtype=float)
    vcov = np.asarray(vcov, dtype=float)
    phi_idx = [names.index(_lag_name(outcome, lag))
               for lag in range(1, p + 1)]
    phi = 1.0 - float(coef[phi_idx].sum()) if phi_idx else 1.0
    if abs(phi) < _PHI_FLOOR:
        raise UnitRootError(
            f"1 - sum(phi) = {phi:.2e}; long-run effect undefined"
        )
    if phi_idx:
        ones = np.zeros(len(coef))
        ones[phi_idx] = 1.0
        phi_se = float(np.sqrt(ones @ vcov @ ones))
    else:
        phi_se = 0.0
    effects = []
    for var in block:
        beta_idx = [names.index(_lag_name(var, lag))
                    for lag in range(0, p + 1)]
        theta = float(coef[beta_idx].sum()) / phi
        grad = np.zeros(len(coef))
        grad[beta_idx] = 1.0 / phi
        if phi_idx:
            grad[phi_idx] = theta / phi
        var_theta = float(grad @ vcov @ grad)
        se = float(np.sqrt(max(var_theta, 0.0)))
        effects.append(LongRunEffect(
            variable=var, theta=theta, se=se,
            stars=significance_stars(theta, se),
            annualized=annualize(theta, m),
        ))
    return LongRunTable(
        outcome=outcome, m=m, effects=tuple(effects),
        phi=phi, phi_se=phi_se,
        phi_stars=significance_stars(phi, phi_se) if phi_idx else "",
        nobs=nobs,
    )


def estimate_ardl(ds: PanelDataset, spec: ARDLSpec) -> ARDLResult:
    """Fit the ARDL by pooled OLS with region fixed effects and derive the
    long-run table. Classical covariance by default; pass spec.hac for
    Driscoll-Kraay."""
    design = build_ardl_design(ds, spec)
    fit = ols(design)
    if spec.hac is not None:
        fit = with_driscoll_kraay(fit, spec.hac)
    table = long_run_from_coefficients(
        fit.coef, fit.vcov, fit.names, spec.outcome, spec.block,
        spec.p, spec.m, fit.nobs,
    )
    return ARDLResult(fit=fit, table=table)


def default_block(temperature_var: str, precipitation_var: str, m: int) -> tuple[str, ...]:
    """Signed-anomaly block in fixed order: T+, T-, P+, P-."""
    return (derived_names(temperature_var, m, seasonal=False)[2:]
            + derived_names(precipitation_var, m, seasonal=False)[2:])

