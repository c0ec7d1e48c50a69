"""Independent brute-force reference implementations.

Everything here is deliberately written as plain loops and lstsq calls so
it shares no code path with the package: spreadsheet-style norm and anomaly
recomputation, full dummy-variable least squares and residual projection,
double-loop Newey-West and Driscoll-Kraay, direct-sum Driscoll-Kraay at lag
zero, classical covariance, and simulation-based truths for the
local-projection and ARDL designs. fe_panel generates the generic
fixed-effects panel the regression tests fit, and panel_design the design
of named series they pass to ols; with_series, panels_equal and
design_from_matrices are the panel and design helpers only tests use.
write_panel_csv is the reference panel writer: csv.writer fed one Python
float per cell, and write_paper_claims_csvs writes through it the inputs
of the end-to-end test of the paper's claims. shift_sum_norm, and within_transform and
focal_driscoll_kraay at the end, are not independent: they are the
package's earlier norm and absorption, kept as bit-for-bit references.
"""
import csv
import math
import warnings

import numpy as np

from climpanel.dataset import PanelDataset, PanelSchema, shift
from climpanel.errors import (
    BandwidthError,
    DegreesOfFreedomError,
    SampleError,
    SpecError,
)
from climpanel.regress import (
    _RANK_TOL,
    Design,
    FocalFit,
    HACSpec,
    _back_substitute,
    _block_design,
    _factor,
    _regressor_block,
    bartlett_weights,
    default_bandwidth,
)
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


def shift_sum_norm(levels, m, mode="same-quarter"):
    """The package's earlier historical_norm, kept as a bit-for-bit
    reference: one full lagged copy of the panel per offset, offsets past
    the panel included, summed from 0.0 in offset order."""
    levels = np.atleast_2d(np.asarray(levels, dtype=float))
    step = 4 if mode == "same-quarter" else 1
    offsets = range(step, 4 * m + 1, step)
    acc = np.zeros(levels.shape)
    for off in offsets:
        acc += shift(levels, off)
    return acc / len(offsets)


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


def with_series(ds, name, matrix, unit=""):
    """ds with one series appended (or replaced)."""
    units = {**ds.units, name: unit} if unit else ds.units
    return PanelDataset(ds.regions, ds.time, {**ds.series, name: matrix},
                        units)


def panels_equal(a, b):
    """Structural equality, bitwise on values (NaN == NaN)."""
    return (a.regions == b.regions and a.time == b.time
            and a.units == b.units and set(a.series) == set(b.series)
            and all(np.array_equal(a.series[k], b.series[k], equal_nan=True)
                    for k in a.series))


def design_from_matrices(y_mat, x_named, regions, time, fixed_effects=(),
                         window=None, add_constant=None):
    """Stack region-by-quarter matrices into a listwise-deleted design.

    x_named is an ordered list of (name, matrix) pairs; rows with any NaN in
    the outcome or a regressor are dropped. When no fixed effects are
    declared a constant column is appended (override with add_constant).
    """
    return _block_design(y_mat, _regressor_block(x_named, time, window),
                         regions, time, fixed_effects, window, add_constant)


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


def write_paper_claims_csvs(directory, seed, beta, phi):
    """Write climate.csv and prices.csv for 32 regions x 252 quarters from
    1962Q1 in which price growth follows

        dy[r,t] = a[r] + phi dy[r,t-1] + beta d(pos[r,t]) + e[r,t]

    with pos the positive part of the 30-year same-quarter precipitation
    anomaly, computed here by brute_anomaly (0 before it is defined), so
    the long-run effect of pos is beta / (1 - phi); temperature moves no
    price. Returns the anomaly, regions by quarters (NaN in the burn-in)."""
    rng = np.random.default_rng(seed)
    R, T = 32, 252
    regions, time = _grid(R, T, "1962Q1")
    season = np.arange(T) % 4
    temperature = (rng.uniform(12.0, 27.0, (R, 1))
                   + rng.uniform(2.0, 9.0, (R, 1))
                   * np.array([-1.0, 0.2, 1.0, 0.1])[season]
                   + rng.normal(0.0, 1.0, (R, T)))
    precipitation = (rng.uniform(15.0, 120.0, (R, 1))
                     * np.array([0.4, 0.7, 1.5, 1.0])[season]
                     * np.exp(rng.normal(0.0, 0.4, (R, T))))
    anom = np.array([brute_anomaly(row, 30)[0] for row in precipitation])
    d_pos = np.diff(np.maximum(np.nan_to_num(anom), 0.0), prepend=0.0)
    alpha = rng.normal(0.01, 0.002, R)
    eps = rng.normal(0.0, 0.008, (R, T))
    dy = np.zeros((R, T))
    for t in range(T):
        dy[:, t] = alpha + beta * d_pos[:, t] + eps[:, t]
        if t:
            dy[:, t] += phi * dy[:, t - 1]
    climate = PanelDataset(regions, time, {"temperature": temperature,
                                           "precipitation": precipitation})
    prices = PanelDataset(regions, time, {
        "all_items": 100.0 * np.exp(np.cumsum(dy, axis=1))})
    write_panel_csv(climate, directory / "climate.csv")
    write_panel_csv(prices, directory / "prices.csv")
    return anom


# Reference copies of regress.within_transform and
# regress.focal_driscoll_kraay (with the helpers they call) as they were
# before absorption summed groups in one pass: one np.bincount per column,
# np.unique for singleton detection and recoding. The package must give
# the same bits, so the differential tests compare with np.array_equal.

def _group_sums(Z: np.ndarray, codes: np.ndarray, n_groups: int) -> np.ndarray:
    """Per-group column sums of Z, one np.bincount per column."""
    return np.column_stack([np.bincount(codes, weights=col, minlength=n_groups)
                            for col in Z.T])


def _demean(Z: np.ndarray, codes: np.ndarray, n_groups: int) -> np.ndarray:
    counts = np.bincount(codes, minlength=n_groups)
    return Z - (_group_sums(Z, codes, n_groups) / counts[:, None])[codes]


def within_transform(design: Design) -> Design:
    """Absorb declared fixed effects by demeaning.

    One-way absorption subtracts group means. Two-way absorption is the
    exact projection off both sets of dummies, in one pass: with a the
    dimension with fewer groups and b the other, subtract the b means, then
    solve C alpha = D_a' Z_b for C = diag(n_a) - N diag(1/n_b) N' (N the
    a-by-b count cross-tab) and subtract alpha[a] net of its own b means.
    The absorbed count is G_b + rank(C), which is right also when the
    region-period graph splits into disconnected blocks. Groups with a
    single observation carry no within variation and are dropped with a
    warning.
    """
    if design.demeaned:
        return design
    dims = design.fixed_effects
    if not dims:
        return design.replace(demeaned=True, absorbed=0)
    if not set(dims) <= {"region", "time"} or len(set(dims)) < len(dims):
        raise SpecError("fixed_effects may name region and time, each once, "
                        f"got {dims}")

    code_arrays = {"region": design.region_codes, "time": design.time_codes}
    keep = np.ones(design.nobs, dtype=bool)
    dropped = 0
    changed = True
    while changed:
        changed = False
        for dim in dims:
            codes = code_arrays[dim][keep]
            vals, counts = np.unique(codes, return_counts=True)
            singles = vals[counts == 1]
            if singles.size:
                hit = keep & np.isin(code_arrays[dim], singles)
                keep &= ~hit
                dropped += int(hit.sum())
                changed = True
    if dropped:
        warnings.warn(
            f"dropped {dropped} observation(s) in singleton "
            f"fixed-effect group(s); they have no within variation",
            stacklevel=2,
        )
    if not keep.any():
        raise SampleError("no observations remain after dropping singleton "
                          "fixed-effect groups")

    region_codes = design.region_codes[keep]
    time_codes = design.time_codes[keep]

    recoded = {}
    group_counts = {}
    for dim in dims:
        raw = region_codes if dim == "region" else time_codes
        vals, codes = np.unique(raw, return_inverse=True)
        recoded[dim] = codes
        group_counts[dim] = len(vals)

    Z = np.column_stack([design.y[keep], design.X[keep]])
    if len(dims) == 1:
        Z = _demean(Z, recoded[dims[0]], group_counts[dims[0]])
        absorbed = group_counts[dims[0]]
    else:
        a, b = sorted(dims, key=group_counts.get)
        ca, cb = recoded[a], recoded[b]
        ga, gb = group_counts[a], group_counts[b]
        Z = _demean(Z, cb, gb)
        N = np.bincount(ca * gb + cb, minlength=ga * gb).reshape(ga, gb)
        C = np.diag(N.sum(axis=1)) - (N / N.sum(axis=0)) @ N.T
        alpha, _, rank_c, _ = np.linalg.lstsq(
            C, _group_sums(Z, ca, ga), rcond=_RANK_TOL)
        Z -= _demean(alpha[ca], cb, gb)
        absorbed = gb + int(rank_c)

    return Design(
        y=Z[:, 0], X=Z[:, 1:], names=design.names,
        region_codes=region_codes, time_codes=time_codes,
        fixed_effects=dims, demeaned=True, absorbed=absorbed,
    )


def _dk_meat(scores: np.ndarray, time_codes: np.ndarray,
             bandwidth: int | None) -> tuple[np.ndarray, int]:
    """Bartlett-weighted autocovariance sum of the period score totals.

    h_t = sum_i scores_it; Gamma_l = (1/T) sum_t h_t h_{t-l}'; returns
    S = sum_l w_l (Gamma_l + Gamma_l') (Gamma_0 once) and T, the number of
    periods present. A bandwidth of None takes default_bandwidth(T).
    """
    tvals = np.unique(time_codes)
    T = len(tvals)
    L = default_bandwidth(T) if bandwidth is None else bandwidth
    if L >= T:
        raise BandwidthError(f"bandwidth {L} must be < {T} time periods")
    # scores summed onto the dense quarter grid from the first sample period
    # to the last; absent periods are zero rows, so each lag is one product
    # of shifted slices, while T stays the number of periods present
    H = _group_sums(scores, time_codes - tvals[0],
                    int(tvals[-1] - tvals[0]) + 1)
    w = bartlett_weights(L)
    S = w[0] * (H.T @ H) / T
    for lag in range(1, L + 1):
        gamma = (H[lag:].T @ H[:-lag]) / T
        S += w[lag] * (gamma + gamma.T)
    return S, T


def focal_driscoll_kraay(design: Design, n_focal: int,
                         hac: HACSpec) -> FocalFit:
    """Fit each of the first n_focal columns of design.X in its own
    regression on y and the remaining columns (the controls), in one pass.

    The design is absorbed once and the controls are factored once by QR;
    y and the focal columns are partialled on them in one least-squares
    solve. By Frisch-Waugh-Lovell, with s~ a partialled focal column and
    y~ the partialled outcome, the slope is s~'y~ / s~'s~ with residual
    e = y~ - slope * s~, and the Driscoll-Kraay variance is that column's
    element of the full sandwich: the Bartlett sum over
    g_t = sum_i s~_it e_it (times nobs/dof when hac.small_sample) over
    (s~'s~)^2, dof = nobs - 1 - n_controls - absorbed as in ols. ok[j] is
    False where ols on column j's own design would fail its rank or dof
    check: rank-deficient controls, dof <= 0, or a partialled focal column
    within the rank tolerance; refit those with ols to get its error.
    """
    d = within_transform(design)
    n = d.nobs
    n_controls = d.X.shape[1] - n_focal
    Z = np.column_stack([d.y, d.X[:, :n_focal]])
    scale = np.linalg.norm(Z[:, 1:], axis=0)
    controls_ok = True
    if n_controls:
        controls = d.X[:, n_focal:]
        R, QtZ, norms, _, _, rank = _factor(controls, Z)
        controls_ok = rank == n_controls
        scale = np.maximum(scale, norms.max())
        if controls_ok:
            Z -= controls @ _back_substitute(R, QtZ)
    dof = n - 1 - n_controls - d.absorbed
    y, s = Z[:, 0], Z[:, 1:]
    ss = np.einsum("ij,ij->j", s, s)
    ok = (np.sqrt(ss) > _RANK_TOL * scale) & controls_ok & (dof > 0)
    coef = np.full(n_focal, np.nan)
    se = np.full(n_focal, np.nan)
    if ok.any():
        s = s[:, ok]
        coef[ok] = (s.T @ y) / ss[ok]
        S, T = _dk_meat(s * (y[:, None] - s * coef[ok]), d.time_codes,
                        hac.bandwidth)
        meat = T * np.diag(S)
        if hac.small_sample:
            meat = meat * (n / dof)
        se[ok] = np.sqrt(meat) / ss[ok]
    return FocalFit(coef=coef, se=se, ok=ok, nobs=n, dof=dof)
