"""Fixed-effects least squares with classical and Driscoll-Kraay covariance.

The estimation path is: assemble a listwise-deleted design from panel
series, absorb region/time fixed effects by demeaning (two-way by one
exact projection) in place on one C-ordered [y | X] block, each group sum
one np.bincount over its cells in row order, solve by rank-revealing
pivoted QR, then attach either the classical covariance sigma^2 (X'X)^-1
or the Driscoll-Kraay HAC covariance built from Bartlett-weighted
autocovariances of the cross-sectionally summed moment vectors
h_t = sum_i x_it e_it.
focal_driscoll_kraay does the same for several focal columns that share
one outcome and one set of controls, absorbing and factoring them once.

Everything runs on numpy and the standard library: the QR is
np.linalg.qr, its rank comes from a column-pivoting pass over the small
triangle it returns, and normal quantiles from statistics.NormalDist.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from ._record import Record
from .dataset import QuarterIndex, _quarter_code
from .errors import (
    BandwidthError,
    DegreesOfFreedomError,
    RankDeficiencyError,
    SampleError,
    SpecError,
)

_RANK_TOL = 1e-10
_NO_ROWS = "no usable observations: all {} rows dropped listwise"
# LAPACK dgeqp3 recomputes a downdated column norm once cancellation has
# left fewer than half the digits: sqrt of the unit roundoff
_NORM_RECOMPUTE = math.sqrt(np.finfo(float).eps / 2.0)

# Two-sided normal critical values for 1% / 5% / 10% significance stars:
# scipy.special.ndtri at 0.995, 0.975 and 0.95, written out so that
# formatting stars computes no quantile.
_STAR_CUTOFFS = (
    (2.5758293035489004, "***"),
    (1.959963984540054, "**"),
    (1.6448536269514722, "*"),
)


class HACSpec(Record):
    """Bartlett-kernel HAC settings: lag truncation L and the small-sample
    scaling T/(T-k) applied to the moment covariance when flagged. A
    bandwidth of None takes default_bandwidth of the periods in the
    estimation sample."""

    bandwidth: int | None
    small_sample: bool = True

    def __post_init__(self):
        if self.bandwidth is not None and self.bandwidth < 0:
            raise SpecError("bandwidth must be >= 0")


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


def check_window(window) -> None:
    """Reject a sample window that is neither None nor a (start, end) pair
    of quarter labels."""
    if window is None:
        return
    try:
        start, end = window
    except (TypeError, ValueError):
        raise SpecError("sample must be a (start, end) pair of quarter "
                        f"labels, got {window!r}") from None
    QuarterIndex.parse(start)
    QuarterIndex.parse(end)


def window_slice(time, window) -> slice:
    """Columns of a quarter axis inside a (start, end) window; None keeps all."""
    if window is None:
        return slice(None)
    lo = QuarterIndex.parse(window[0])
    hi = QuarterIndex.parse(window[1])
    a = max(lo - time[0], 0)
    b = min(hi - time[0], len(time) - 1)
    if b < a:
        raise SampleError(f"sample window {lo}..{hi} is empty")
    return slice(a, b + 1)


def _regressor_block(x_named, time, window):
    """Names, cells inside the window as one C-ordered (cells x k) block
    (region-major, quarter within region) and its rows without a NaN."""
    sl = window_slice(time, window)
    block = np.stack([np.asarray(mat, float)[:, sl] for _, mat in x_named],
                     axis=-1).reshape(-1, len(x_named))
    return (tuple(name for name, _ in x_named), block,
            np.isfinite(block).all(axis=1))


def _check_lag_order(lags: int, n_regions: int, time, window) -> None:
    """Raise, before any lag column is built, the error _block_design gives
    when no row outlives the lag order; an empty window is reported first."""
    if lags >= len(time):
        n_window = len(tuple(time)[window_slice(time, window)])
        raise SampleError(_NO_ROWS.format(n_regions * n_window))


def _block_design(y_mat, regressors, regions, time, fixed_effects=(),
                  window=None, add_constant=None) -> Design:
    """Stack the region-by-quarter outcome y_mat and a _regressor_block into
    a listwise-deleted design: rows with any NaN in the outcome or a
    regressor are dropped. When no fixed effects are declared a constant
    column is appended (override with add_constant)."""
    names, block, finite = regressors
    sl = window_slice(time, window)
    time = tuple(time)[sl]
    y = np.asarray(y_mat, float)[:, sl].reshape(len(regions) * len(time))
    rows = np.flatnonzero(np.isfinite(y) & finite)
    if not rows.size:
        raise SampleError(_NO_ROWS.format(y.size))
    region_codes, period = np.divmod(rows, len(time))
    if add_constant is None:
        add_constant = not fixed_effects
    X = block[rows]
    if add_constant:
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
    region-period graph splits into disconnected blocks. Groups with a
    single observation carry no within variation and are dropped with a
    warning. Groups are counted by np.bincount on offset codes, with no
    sort; y and X are absorbed in place as one C-ordered block.
    """
    if design.demeaned:
        return design
    dims = design.fixed_effects
    if not dims:
        return design.replace(demeaned=True, absorbed=0)
    if not set(dims) <= {"region", "time"} or len(set(dims)) < len(dims):
        raise SpecError("fixed_effects may name region and time, each once, "
                        f"got {dims}")
    if not design.nobs:
        raise SampleError("no observations to absorb")

    raw = {"region": design.region_codes, "time": design.time_codes}
    codes = {dim: raw[dim] - raw[dim].min() for dim in dims}
    keep = np.ones(design.nobs, dtype=bool)
    counts = {}   # kept rows per offset code
    dropped = 0
    changed = True
    while changed:
        changed = False
        for dim in dims:
            counts[dim] = np.bincount(codes[dim], weights=keep)
            hit = keep & (counts[dim] == 1)[codes[dim]]
            if hit.any():
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
    if len(dims) == 1:
        demean(Z, dims[0])
        absorbed = len(groups[dims[0]][1])
    else:
        a, b = sorted(dims, key=lambda dim: len(groups[dim][1]))
        (ca, na), (cb, nb) = groups[a], groups[b]
        ga, gb = len(na), len(nb)
        demean(Z, b)
        N = np.bincount(ca * gb + cb, minlength=ga * gb).reshape(ga, gb)
        C = np.diag(N.sum(axis=1)) - (N / N.sum(axis=0)) @ N.T
        alpha, _, rank_c, _ = np.linalg.lstsq(
            C, _group_sums(Z, ca, ga), rcond=_RANK_TOL)
        shift = alpha[ca]
        demean(shift, b)
        Z -= shift
        absorbed = gb + int(rank_c)

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
    rank: int
    absorbed: int
    within_x: np.ndarray
    resid_vec: np.ndarray
    time_codes: np.ndarray
    xtx_inv: np.ndarray


def _pivoted_triangle(R: np.ndarray, norms: np.ndarray):
    """Column-pivoted Householder pass over the small triangle R of A = Q R
    (Businger & Golub 1965; Golub & Van Loan, Alg. 5.4.1).

    Gives R[:, piv] = Q1 Rp, so that A[:, piv] = (Q Q1) Rp exactly: the
    pivoted QR of A without touching its n rows again. Pivots follow LAPACK
    dgeqp3: the column of largest remaining norm, the first on ties,
    starting from norms (A's column norms) and downdated after each step.
    Returns Rp and piv.
    """
    m, k = R.shape   # m = min(n, k)
    Rp = R.copy()
    piv = list(range(k))
    # k is small, so the pivot bookkeeping is plain Python floats
    norms = norms.tolist()
    ref = norms[:]   # each norm when it was last computed in full
    for i in range(m):
        p = max(range(i, k), key=norms.__getitem__)
        if p != i:
            for seq in (piv, norms, ref):
                seq[i], seq[p] = seq[p], seq[i]
            Rp[:, [i, p]] = Rp[:, [p, i]]
        x = Rp[i:, i]
        size = math.sqrt(float(x @ x))
        if size != 0.0:
            # reflector I - tau v v' with v[0] = 1 maps x onto beta e_1
            beta = -math.copysign(size, x[0])
            v = x / (x[0] - beta)
            v[0] = 1.0
            rest = Rp[i:, i + 1:]
            rest -= np.outer(v, ((beta - x[0]) / beta) * (v @ rest))
            Rp[i, i] = beta
            Rp[i + 1:, i] = 0.0
        for j, r in enumerate(Rp[i, i + 1:].tolist(), start=i + 1):
            if norms[j] == 0.0:
                continue
            left = max(1.0 - (abs(r) / norms[j]) ** 2, 0.0)
            if left * (norms[j] / ref[j]) ** 2 <= _NORM_RECOMPUTE:
                col = Rp[i + 1:, j]
                norms[j] = ref[j] = math.sqrt(float(col @ col))
            else:
                norms[j] *= math.sqrt(left)
    return Rp, piv


def _factor(A: np.ndarray, B: np.ndarray):
    """QR of A (n x k) in numpy, with Q'B for the columns B (n x m) that
    ride along, and the rank of A under the pivoted-QR rule.

    np.linalg.qr (LAPACK dgeqrf) factors [A | B]: its leading block is
    A = Q R and its top-right block Q'B; Q itself is never formed.
    _pivoted_triangle turns R into the pivoted triangle Rp, and the rank
    is the count of |Rp_jj| above _RANK_TOL times the largest, |Rp_11|.
    Returns R, Q'B, A's column norms, Rp, its pivot order and the rank.
    """
    k = A.shape[1]
    full = np.linalg.qr(np.column_stack([A, B]), mode="r")
    R, QtB = full[:k, :k], full[:k, k:]
    norms = np.sqrt(np.einsum("ij,ij->j", A, A))
    Rp, piv = _pivoted_triangle(R, norms)
    diag = np.abs(np.diag(Rp))
    rank = int((diag > _RANK_TOL * diag[0]).sum()) if diag.size else 0
    return R, QtB, norms, Rp, piv, rank


def _back_substitute(R: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve R X = B for upper-triangular R (B a vector or a matrix)."""
    X = np.array(B, dtype=float)
    for i in range(R.shape[0] - 1, -1, -1):
        X[i] = (X[i] - R[i, i + 1:] @ X[i + 1:]) / R[i, i]
    return X


def _describe_rank_deficiency(Rp, piv, rank, names, norms):
    offenders = []
    lines = []
    norm_scale = norms.max()
    for pos in range(rank, len(piv)):
        name = names[piv[pos]]
        offenders.append(name)
        if norms[piv[pos]] <= _RANK_TOL * max(norm_scale, 1.0):
            lines.append(f"{name!r} has no variation after FE absorption")
            continue
        partners = []
        if rank > 0:
            c = _back_substitute(Rp[:rank, :rank], Rp[:rank, pos])
            big = np.abs(c) > 1e-8 * max(1.0, float(np.abs(c).max()))
            partners = [names[piv[i]] for i in np.nonzero(big)[0]]
        offenders.extend(p for p in partners if p not in offenders)
        lines.append(f"{name!r} is collinear with {partners}")
    return offenders, lines


def ols(design: Design) -> FitResult:
    """Least squares on the (within-transformed) design via pivoted QR.

    Raises RankDeficiencyError naming the collinear or degenerate columns
    instead of silently dropping them; dof = nobs - rank - absorbed FE count.
    """
    d = design if design.demeaned else within_transform(design)
    n, k = d.X.shape
    if n == 0:
        raise SampleError("empty design")
    R, qty, norms, Rp, piv, rank = _factor(d.X, d.y)
    if rank < k:
        offenders, lines = _describe_rank_deficiency(
            Rp, piv, rank, d.names, norms)
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
        nobs=n, dof=dof, rank=rank, absorbed=d.absorbed,
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
        if fit.dof <= 0:
            raise DegreesOfFreedomError(
                f"small-sample factor needs nobs > k + absorbed: "
                f"nobs={fit.nobs}, k={fit.rank}, absorbed={fit.absorbed}"
            )
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
    check: rank-deficient controls, dof <= 0, or a partialled focal column
    within the rank tolerance; refit those with ols to get its error.
    """
    d = design if design.demeaned else within_transform(design)
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


def confidence_band(
    fit: FitResult, level: float
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric per-coefficient bands coef +/- q * se, q the normal
    quantile; level = 0 degenerates to [coef, coef]."""
    if not 0.0 <= level < 1.0:
        raise SpecError(f"level must be in [0, 1), got {level}")
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
