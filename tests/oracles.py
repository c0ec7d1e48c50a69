"""Independent brute-force reference implementations.

Everything here is deliberately written as plain loops and lstsq calls so
it shares no code path with the package: spreadsheet-style norm and anomaly
recomputation, full dummy-variable least squares and residual projection,
double-loop Newey-West and Driscoll-Kraay, direct-sum Driscoll-Kraay at lag
zero, classical covariance, and simulation-based truths for the
local-projection and ARDL designs. fe_panel generates the generic
fixed-effects panel the regression tests fit, and panel_design the design
of named series they pass to ols. write_panel_csv is the reference panel
writer: csv.writer fed one Python float per cell.
"""
import csv
import math

import numpy as np

from climpanel.dataset import PanelDataset, PanelSchema
from climpanel.errors import DegreesOfFreedomError
from climpanel.regress import design_from_matrices
from climpanel.simulate import _grid


def brute_norm(levels_row, m, frequency=4, mode="same-quarter"):
    """Trailing moving average by explicit summation, one cell at a time."""
    T = len(levels_row)
    out = [math.nan] * T
    if mode == "same-quarter":
        offsets = [l * frequency for l in range(1, m + 1)]
    else:
        offsets = list(range(1, m * frequency + 1))
    for t in range(T):
        if t - max(offsets) < 0:
            continue
        total = 0.0
        for off in offsets:
            total += levels_row[t - off]
        out[t] = total / len(offsets)
    return out


def brute_anomaly(levels_row, m, frequency=4, mode="same-quarter"):
    """Anomaly cells recomputed spreadsheet-style from the brute norm."""
    norm = brute_norm(levels_row, m, frequency, mode)
    scale = 2.0 / (m + 1)
    values = [
        scale * (x - nm) if not math.isnan(nm) else math.nan
        for x, nm in zip(levels_row, norm)
    ]
    return values, norm


def dummy_ols_slopes(y, X, region_codes, time_codes, fixed_effects):
    """LSDV oracle: slopes from the full dummy-variable regression.

    Region dummies enter saturated; time dummies drop their first column
    when region dummies are present to avoid exact collinearity.
    """
    cols = [X]
    if "region" in fixed_effects:
        vals = np.unique(region_codes)
        cols.append((region_codes[:, None] == vals[None, :]).astype(float))
    if "time" in fixed_effects:
        vals = np.unique(time_codes)
        D = (time_codes[:, None] == vals[None, :]).astype(float)
        cols.append(D[:, 1:] if "region" in fixed_effects else D)
    if not fixed_effects:
        cols.append(np.ones((len(y), 1)))
    Z = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(Z, y, rcond=None)
    return coef[: X.shape[1]]


def lsdv_residuals(Z, region_codes, time_codes, fixed_effects):
    """LSDV projection oracle: residuals of every column of Z on the full,
    unreduced set of fixed-effect dummies by lstsq, plus the dummies' rank
    (the number of absorbed parameters)."""
    D = np.column_stack([
        (codes[:, None] == np.unique(codes)[None, :]).astype(float)
        for dim, codes in (("region", region_codes), ("time", time_codes))
        if dim in fixed_effects
    ])
    coef, _, rank, _ = np.linalg.lstsq(D, Z, rcond=None)
    return Z - D @ coef, int(rank)


def vcov_classical(fit):
    """sigma^2 (X'X)^-1 with sigma^2 = RSS / dof, from a fit's residuals and
    its (X'X)^-1."""
    if fit.dof <= 0:
        raise DegreesOfFreedomError(f"dof={fit.dof}")
    sigma2 = float(fit.resid_vec @ fit.resid_vec) / fit.dof
    return sigma2 * fit.xtx_inv


def newey_west_double_loop(X, resid, bandwidth, small_sample=True):
    """Literal double-loop Newey-West covariance for one time series."""
    n, k = X.shape
    meat = np.zeros((k, k))
    for t in range(n):
        for s in range(n):
            lag = abs(t - s)
            if lag > bandwidth:
                continue
            w = 1.0 - lag / (bandwidth + 1.0)
            meat += w * resid[t] * resid[s] * np.outer(X[t], X[s])
    if small_sample:
        meat *= n / (n - k)
    bread = np.linalg.inv(X.T @ X)
    return bread @ meat @ bread


def dk_direct_sum_lag0(X, resid, time_codes, scale=1.0):
    """Driscoll-Kraay at L=0 as a direct sum of per-period score outer
    products, times an externally supplied small-sample scale."""
    tvals = np.unique(time_codes)
    k = X.shape[1]
    meat = np.zeros((k, k))
    for tv in tvals:
        rows = time_codes == tv
        h = (X[rows] * resid[rows, None]).sum(axis=0)
        meat += np.outer(h, h)
    bread = np.linalg.inv(X.T @ X)
    return scale * (bread @ meat @ bread)


def dk_double_loop(X, resid, time_codes, bandwidth, scale=1.0):
    """Driscoll-Kraay as a literal double loop over pairs of sample periods,
    Bartlett-weighted by their distance in quarters, times an externally
    supplied small-sample scale."""
    tvals = [int(t) for t in np.unique(time_codes)]
    k = X.shape[1]
    h = {}
    for tv in tvals:
        rows = time_codes == tv
        h[tv] = (X[rows] * resid[rows, None]).sum(axis=0)
    meat = np.zeros((k, k))
    for t in tvals:
        for s in tvals:
            lag = abs(t - s)
            if lag > bandwidth:
                continue
            meat += (1.0 - lag / (bandwidth + 1.0)) * np.outer(h[t], h[s])
    bread = np.linalg.inv(X.T @ X)
    return scale * (bread @ meat @ bread)


def lp_true_cumulative_response(beta, horizon, seed=1234, T=60, t0=20):
    """True cumulative response of log(P[t+h]) - log(P[t-1]) to a unit
    shock, by counterfactual simulation with shared noise."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=T)
    eps = rng.normal(size=T)

    def log_path(shocks):
        return np.cumsum(beta * shocks + eps)

    base = log_path(x)
    bumped = x.copy()
    bumped[t0] += 1.0
    pert = log_path(bumped)
    # log P[t0-1] is unaffected by the bump, so it cancels in the difference
    return (pert[t0 + horizon] - base[t0 + horizon])


def ardl_steady_state(phi, beta, tol=1e-14, max_iter=100000):
    """Limiting response of dy to a permanent unit step in dx, iterated."""
    hist = [0.0] * max(len(phi), 1)
    for step in range(max_iter):
        nxt = sum(b for b in beta) if step >= len(beta) - 1 else sum(
            beta[: step + 1])
        for i, ph in enumerate(phi, start=1):
            nxt += ph * hist[-i]
        hist.append(nxt)
        if abs(hist[-1] - hist[-2]) < tol:
            return hist[-1]
    return hist[-1]


def quantile_type7(values, p):
    """Type-7 quantile by the textbook index formula."""
    v = sorted(values)
    n = len(v)
    h = (n - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    return v[lo] + (h - lo) * (v[hi] - v[lo])


def fe_panel(
    n_regions: int = 8,
    n_quarters: int = 40,
    betas=(1.5,),
    region_sd: float = 1.0,
    time_sd: float = 1.0,
    noise_sd: float = 1.0,
    x_sd: float = 1.0,
    start="2000Q1",
    seed: int = 0,
) -> PanelDataset:
    """Generic panel y = sum_k beta_k x_k + region effect + time effect + e.

    Series: 'y', 'x1'..'xK'.
    """
    rng = np.random.default_rng(seed)
    regions, time = _grid(n_regions, n_quarters, start)
    R, T = len(regions), len(time)
    xs = [rng.normal(0.0, x_sd, (R, T)) for _ in betas]
    y = rng.normal(0.0, noise_sd, (R, T))
    y += rng.normal(0.0, region_sd, (R, 1))
    y += rng.normal(0.0, time_sd, (1, T))
    for b, x in zip(betas, xs):
        y += b * x
    series = {"y": y}
    series.update({f"x{i + 1}": x for i, x in enumerate(xs)})
    return PanelDataset(regions, time, series, {})


def panel_design(ds, outcome, regressors, fixed_effects=(),
                 add_constant=None):
    """Design of ds's named outcome on its named regressors over the whole
    panel (a constant column when there are no fixed effects, unless
    add_constant says otherwise)."""
    return design_from_matrices(
        ds.values(outcome), [(name, ds.values(name)) for name in regressors],
        ds.regions, ds.time, fixed_effects=fixed_effects,
        add_constant=add_constant)


def write_panel_csv(ds, path, schema=None, header_comments=()):
    """Reference panel writer: every row goes through csv.writer with one
    Python float per cell, which csv writes as its repr; NaN cells are the
    schema's missing token. dataset.write_panel must write these bytes."""
    schema = schema or PanelSchema()
    names = ds.variables
    units = [f"unit {n} = {ds.unit(n)}" for n in names if ds.unit(n)]
    cells = np.stack([ds.series[n] for n in names], axis=-1)
    keys = [(r, q.year, q.quarter) for r in ds.regions for q in ds.time]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"# {c}\n" for c in [*header_comments, *units])
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([schema.region, schema.year, schema.quarter, *names])
        writer.writerows(
            [*k, *(schema.missing if v != v else v for v in vals)]
            for k, vals in zip(keys, cells.reshape(len(keys), -1).tolist()))
