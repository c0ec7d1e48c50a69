"""Fixed-effects least squares with classical and Driscoll-Kraay covariance.

The estimation path is: assemble a listwise-deleted design from panel
series and their lags, each written straight into one regressor block,
absorb region/time fixed effects by demeaning (two-way by one exact
projection) in place on one C-ordered [y | X] block, each group sum one
np.bincount over its cells in row order, solve by QR after a rank check,
then attach either the classical covariance sigma^2 (X'X)^-1
or the Driscoll-Kraay HAC covariance built from Bartlett-weighted
autocovariances of the cross-sectionally summed moment vectors
h_t = sum_i x_it e_it.
focal_driscoll_kraay does the same for several focal columns that share
one outcome and one set of controls, absorbing and factoring them once.

Everything runs on numpy and the standard library: the QR is
np.linalg.qr, its rank from the singular values of the small triangle
it returns, and normal quantiles from statistics.NormalDist.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from ._record import Record
from .errors import (
    BandwidthError,
    DegreesOfFreedomError,
    RankDeficiencyError,
    SampleError,
)
from .specs import HACSpec, _quarter_code, check_fixed_effects, check_window

_RANK_TOL = 1e-10
_NO_ROWS = "no usable observations: all {} rows dropped listwise"

# Two-sided normal critical values for 1% / 5% / 10% significance stars:
# scipy.special.ndtri at 0.995, 0.975 and 0.95, written out so that
# formatting stars computes no quantile.
_STAR_CUTOFFS = (
    (2.5758293035489004, "***"),
    (1.959963984540054, "**"),
    (1.6448536269514722, "*"),
)


def bartlett_weights(bandwidth: int) -> np.ndarray:
    """Triangular lag weights w_l = 1 - l/(L+1), l = 0..L."""
    return 1.0 - np.arange(bandwidth + 1) / (bandwidth + 1.0)


def default_bandwidth(n_periods: int) -> int:
    """Newey-West rule of thumb floor(4 (T/100)^(2/9))."""
    return int(math.floor(4.0 * (n_periods / 100.0) ** (2.0 / 9.0)))


class Design(Record):
    """Stacked regression sample (region-major, time within region)."""

    y: np.ndarray
    X: np.ndarray
    names: tuple[str, ...]
    region_codes: np.ndarray   # position in the panel's regions
    time_codes: np.ndarray     # absolute quarter number (year*4 + quarter-1)
    fixed_effects: tuple[str, ...] = ()
    demeaned: bool = False
    absorbed: int = 0

    @property
    def nobs(self) -> int:
        return self.y.shape[0]


def window_slice(time, window) -> slice:
    """Columns of a quarter axis inside a (start, end) window; None keeps all."""
    if window is None:
        return slice(None)
    lo, hi = check_window(window)
    a = max(lo - time[0], 0)
    b = min(hi - time[0], len(time) - 1)
    if b < a:
        raise SampleError(f"sample window {lo}..{hi} is empty")
    return slice(a, b + 1)


def _regressor_block(entries, time, window):
    """Names, the window's cells as one C-ordered (cells x k) block
    (region-major, quarter within region), its rows without a NaN, and the
    window's columns and quarters. Entry (name, matrix, lag) fills its
    column with matrix[:, t - lag], NaN before the panel. Lagged first
    differences leave no row at an order >= T - 1: after an empty window's,
    that raises _block_design's error before any column is written."""
    cols = window_slice(time, window)
    start, stop, _ = cols.indices(len(time))
    n_regions = entries[0][1].shape[0]
    if 0 < max(lag for _, _, lag in entries) >= len(time) - 1:
        raise SampleError(_NO_ROWS.format(n_regions * (stop - start)))
    block = np.empty((n_regions, stop - start, len(entries)))
    for j, (_, mat, lag) in enumerate(entries):
        skip = min(max(lag - start, 0), stop - start)   # cells with t < lag
        block[:, :skip, j] = np.nan
        block[:, skip:, j] = mat[:, start + skip - lag:stop - lag]
    block = block.reshape(-1, len(entries))
    return (tuple(name for name, _, _ in entries), block,
            np.isfinite(block).all(axis=1), cols, tuple(time)[cols])


def _block_design(y_mat, regressors, fixed_effects=()) -> Design:
    """Stack the region-by-quarter outcome y_mat, in the block's window, and
    a _regressor_block into a listwise-deleted design: rows with any NaN in
    the outcome or a regressor are dropped. With no fixed effects declared
    a constant column is appended."""
    names, block, finite, cols, time = regressors
    y = np.asarray(y_mat, float)[:, cols].ravel()
    rows = np.flatnonzero(np.isfinite(y) & finite)
    if not rows.size:
        raise SampleError(_NO_ROWS.format(y.size))
    region_codes, period = np.divmod(rows, len(time))
    X = block[rows]
    if not fixed_effects:
        X = np.column_stack([X, np.ones(rows.size)])
        names += ("const",)
    return Design(
        y=y[rows], X=X, names=names,
        region_codes=region_codes,
        time_codes=_quarter_code(time[0].year, time[0].quarter) + period,
        fixed_effects=tuple(fixed_effects),
    )


def _group_sums(Z: np.ndarray, codes: np.ndarray, n_groups: int) -> np.ndarray:
    """Per-group column sums of the n x m block Z, C-ordered: one bincount
    over Z's cells in memory order, so each group adds its rows in order."""
    m = Z.shape[1]
    cells = (codes * m)[:, None] + np.arange(m)
    return np.bincount(cells.ravel(), weights=Z.ravel(),
                       minlength=n_groups * m).reshape(n_groups, m)


def within_transform(design: Design) -> Design:
    """Absorb declared fixed effects by demeaning.

    One-way absorption subtracts group means. Two-way absorption is the
    exact projection off both sets of dummies, in one pass: with a the
    dimension with fewer groups and b the other, subtract the b means, then
    solve C alpha = D_a' Z_b for C = diag(n_a) - N diag(1/n_b) N' (N the
    a-by-b count cross-tab) and subtract alpha[a] net of its own b means.
    The absorbed count is G_b + rank(C), which is right also when the
    region-period graph splits into disconnected blocks. Rows of one-row
    groups, which carry no within variation, are dropped with a warning
    until none is left. Groups are counted by np.bincount on offset codes,
    with no sort; y and X are absorbed in place as one C-ordered block.
    """
    dims = design.fixed_effects
    if not dims:
        return design.replace(demeaned=True, absorbed=0)
    check_fixed_effects(dims)

    raw = {"region": design.region_codes, "time": design.time_codes}
    codes = {dim: raw[dim] - raw[dim].min() for dim in dims}
    keep = np.ones(design.nobs, dtype=bool)
    while True:   # until no kept row lies in a singleton group
        counts = {d: np.bincount(codes[d], weights=keep) for d in dims}
        hit = keep & np.any([(counts[d] == 1)[codes[d]] for d in dims], axis=0)
        if not hit.any():
            break
        keep &= ~hit
    dropped = design.nobs - int(keep.sum())
    if dropped:
        warnings.warn(
            f"dropped {dropped} observation(s) in singleton "
            f"fixed-effect group(s); they have no within variation",
            stacklevel=2,
        )
    if not keep.any():
        raise SampleError("no observations remain after dropping singleton "
                          "fixed-effect groups")

    rows = keep if dropped else slice(None)
    # each dimension's groups renumbered 0..G-1 in code order, with sizes
    groups = {}
    for dim in dims:
        present = counts[dim] > 0
        groups[dim] = ((np.cumsum(present) - 1)[codes[dim][rows]],
                       counts[dim][present])

    def demean(Z, dim):
        grp, size = groups[dim]
        Z -= (_group_sums(Z, grp, len(size)) / size[:, None])[grp]

    Z = np.concatenate([design.y[rows, None], design.X[rows]], axis=1,
                       dtype=float)
    *rest, b = sorted(dims, key=lambda dim: len(groups[dim][1]))
    cb, nb = groups[b]
    demean(Z, b)
    absorbed = gb = len(nb)
    for a in rest:   # the second dimension, with no more groups than b
        ca, na = groups[a]
        ga = len(na)
        N = np.bincount(ca * gb + cb, minlength=ga * gb).reshape(ga, gb)
        C = np.diag(N.sum(axis=1)) - (N / N.sum(axis=0)) @ N.T
        alpha, _, rank_c, _ = np.linalg.lstsq(
            C, _group_sums(Z, ca, ga), rcond=_RANK_TOL)
        shift = alpha[ca]
        demean(shift, b)
        Z -= shift
        absorbed += int(rank_c)

    return Design(
        y=Z[:, 0], X=Z[:, 1:], names=design.names,
        region_codes=design.region_codes[rows],
        time_codes=design.time_codes[rows],
        fixed_effects=dims, demeaned=True, absorbed=absorbed,
    )


class FitResult(Record):
    """One estimated fixed-effects regression.

    within_x / resid_vec / time_codes / xtx_inv retain the demeaned
    internals needed by the covariance estimators.
    """

    names: tuple[str, ...]
    coef: np.ndarray
    vcov: np.ndarray
    se: np.ndarray
    nobs: int
    dof: int
    absorbed: int
    within_x: np.ndarray
    resid_vec: np.ndarray
    time_codes: np.ndarray
    xtx_inv: np.ndarray


def _factor(A: np.ndarray, B: np.ndarray):
    """QR of A (n x k) in numpy, with Q'B for the columns B (n x m) that
    ride along, and the numerical rank of A with a basis of its null space.

    np.linalg.qr (LAPACK dgeqrf) factors [A | B]: its leading block is
    A = Q R and its top-right block Q'B; Q itself is never formed. Q has
    orthonormal columns, so the small triangle R has A's singular values;
    the rank is the count of them above _RANK_TOL times the largest (Golub
    & Van Loan, Matrix Computations, 5.4), and the rows of V' past the
    rank span the null space of R and of A.
    Returns R, Q'B, A's column norms, the rank and that null-space basis.
    """
    k = A.shape[1]
    full = np.linalg.qr(np.column_stack([A, B]), mode="r")
    R, QtB = full[:k, :k], full[:k, k:]
    norms = np.sqrt(np.einsum("ij,ij->j", A, A))
    _, sv, Vt = np.linalg.svd(R)
    rank = int((sv > _RANK_TOL * sv[0]).sum()) if sv.size else 0
    return R, QtB, norms, rank, Vt[rank:]


def _back_substitute(R: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve R X = B for upper-triangular R (B a vector or a matrix)."""
    X = np.array(B, dtype=float)
    for i in range(R.shape[0] - 1, -1, -1):
        X[i] = (X[i] - R[i, i + 1:] @ X[i + 1:]) / R[i, i]
    return X


def _describe_rank_deficiency(null, names, norms):
    """The columns with weight in the null-space basis null, in design
    order, and one message line for each without variation after
    absorption and one for the rest together. A column's weight is its
    norm over the basis, which no rotation of the basis changes."""
    weight = np.sqrt(np.einsum("ij,ij->j", null, null))
    named = np.flatnonzero(weight > 1e-8 * weight.max())
    flat = norms <= _RANK_TOL * max(norms.max(), 1.0)
    lines = [f"{names[j]!r} has no variation after FE absorption"
             for j in named if flat[j]]
    rest = [names[j] for j in named if not flat[j]]
    if rest:
        lines.append(f"{rest} are collinear")
    return [names[j] for j in named], lines


def ols(design: Design) -> FitResult:
    """Least squares on the (within-transformed) design via QR.

    Raises RankDeficiencyError naming the collinear or degenerate columns
    instead of silently dropping them; dof = nobs - rank - absorbed FE count.
    """
    d = design if design.demeaned else within_transform(design)
    n, k = d.X.shape
    R, qty, norms, rank, null = _factor(d.X, d.y)
    if rank < k:
        offenders, lines = _describe_rank_deficiency(null, d.names, norms)
        raise RankDeficiencyError(
            "design matrix is rank deficient: " + "; ".join(lines),
            columns=offenders,
        )
    coef = _back_substitute(R, qty[:, 0])
    resid = d.y - d.X @ coef
    rinv = _back_substitute(R, np.eye(k))
    xtx_inv = rinv @ rinv.T

    dof = n - rank - d.absorbed
    if dof <= 0:
        raise DegreesOfFreedomError(
            f"non-positive residual dof: nobs={n}, rank={rank}, "
            f"absorbed={d.absorbed}"
        )
    sigma2 = float(resid @ resid) / dof
    vcov = sigma2 * xtx_inv
    se = np.sqrt(np.diag(vcov))
    return FitResult(
        names=d.names, coef=coef, vcov=vcov, se=se,
        nobs=n, dof=dof, absorbed=d.absorbed,
        within_x=d.X, resid_vec=resid,
        time_codes=d.time_codes, xtx_inv=xtx_inv,
    )


def _dk_meat(scores: np.ndarray, time_codes: np.ndarray,
             bandwidth: int | None) -> tuple[np.ndarray, int]:
    """Bartlett-weighted autocovariance sum of the period score totals.

    h_t = sum_i scores_it; Gamma_l = (1/T) sum_t h_t h_{t-l}'; returns
    S = sum_l w_l (Gamma_l + Gamma_l') (Gamma_0 once) and T, the number of
    periods present. A bandwidth of None takes default_bandwidth(T).
    """
    period = time_codes - time_codes.min()
    present = np.bincount(period)
    T = int(np.count_nonzero(present))
    L = default_bandwidth(T) if bandwidth is None else bandwidth
    if L >= T:
        raise BandwidthError(f"bandwidth {L} must be < {T} time periods")
    # scores summed onto the dense quarter grid from the first sample period
    # to the last; absent periods are zero rows, so each lag is one product
    # of shifted slices, while T stays the number of periods present
    H = _group_sums(scores, period, len(present))
    w = bartlett_weights(L)
    S = w[0] * (H.T @ H) / T
    for lag in range(1, L + 1):
        gamma = (H[lag:].T @ H[:-lag]) / T
        S += w[lag] * (gamma + gamma.T)
    return S, T


def vcov_driscoll_kraay(fit: FitResult, hac: HACSpec) -> np.ndarray:
    """HAC covariance over cross-sectionally summed score vectors.

    h_t = sum_i x_it e_it; Gamma_l = (1/T) sum_t h_t h_{t-l}'; the meat is
    S = sum_l w_l (Gamma_l + Gamma_l') with Bartlett weights, scaled by
    nobs/(nobs - k - absorbed) when hac.small_sample (T/(T-k) for a single
    unit without fixed effects); vcov = (X'X)^-1 (T S) (X'X)^-1.
    """
    S, T = _dk_meat(fit.within_x * fit.resid_vec[:, None], fit.time_codes,
                    hac.bandwidth)
    if hac.small_sample:
        # dof-aware factor: within residuals are shrunk by the absorbed FE
        # dummies as well as the k slopes, so scale by nobs/(nobs-k-absorbed);
        # with one unit and no FE this is exactly T/(T-k)
        S *= fit.nobs / fit.dof
    V = fit.xtx_inv @ (T * S) @ fit.xtx_inv
    return (V + V.T) / 2.0


def with_driscoll_kraay(fit: FitResult, hac: HACSpec) -> FitResult:
    """Return the fit with Driscoll-Kraay vcov and standard errors."""
    V = vcov_driscoll_kraay(fit, hac)
    return fit.replace(vcov=V, se=np.sqrt(np.diag(V)))


class FocalFit(Record):
    """Slope and standard error of each focal column, entry j from the
    regression of y on focal column j and the shared controls only; NaN
    where ok[j] is False."""

    coef: np.ndarray
    se: np.ndarray
    ok: np.ndarray
    nobs: int
    dof: int


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
    check, by _factor's rule: column j's design [controls | s_j] has the
    triangle [[R, Q's_j], [0, |s~_j|]] from the controls' QR, and ok[j]
    needs all n_controls + 1 of its singular values above _RANK_TOL times
    the largest, and dof > 0. Refit the others with ols to get its error.
    """
    d = design if design.demeaned else within_transform(design)
    n = d.nobs
    n_controls = d.X.shape[1] - n_focal
    Z = np.column_stack([d.y, d.X[:, :n_focal]])
    controls = d.X[:, n_focal:]   # n x 0 without controls: R is 0 x 0
    R, QtZ, _, rank, _ = _factor(controls, Z)
    controls_ok = rank == n_controls
    if controls_ok:
        Z -= controls @ _back_substitute(R, QtZ)
    dof = n - 1 - n_controls - d.absorbed
    y, s = Z[:, 0], Z[:, 1:]
    ss = np.einsum("ij,ij->j", s, s)
    ok = np.zeros(n_focal, dtype=bool)
    # full rank and dof > 0 give nobs > n_controls, so R is square; with
    # fewer rows QR gives R only nobs rows and every shock fails ols anyway
    if controls_ok and dof > 0:
        triangles = np.zeros((n_focal, n_controls + 1, n_controls + 1))
        triangles[:, :-1, :-1] = R
        triangles[:, :-1, -1] = QtZ[:, 1:].T
        triangles[:, -1, -1] = np.sqrt(ss)
        sv = np.linalg.svd(triangles, compute_uv=False)
        ok = (sv > _RANK_TOL * sv[:, :1]).all(axis=1)
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


def confidence_band(
    fit: FitResult, level: float
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric per-coefficient bands coef +/- q * se, q the normal
    quantile; level = 0 degenerates to [coef, coef]."""
    # imported here: statistics loads decimal and fractions, which no other
    # command needs
    from statistics import NormalDist
    q = NormalDist().inv_cdf((1.0 + level) / 2.0)
    return fit.coef - q * fit.se, fit.coef + q * fit.se


def significance_stars(estimate: float, se: float) -> str:
    """Two-sided normal stars: *** 1%, ** 5%, * 10% (boundaries inclusive)."""
    if se == 0.0:
        z = math.inf if estimate != 0.0 else math.nan
    else:
        z = abs(estimate / se)
    for cutoff, mark in _STAR_CUTOFFS:
        if z >= cutoff:
            return mark
    return ""
