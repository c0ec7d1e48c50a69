"""Within transformation, QR OLS with its rank check, classical and DK
covariance."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, special

from climpanel import (
    ARDLSpec,
    HACSpec,
    LPSpec,
    PanelDataset,
    QuarterIndex,
    quarter_range,
)
from climpanel.ardl import build_ardl_design
from climpanel.localproj import build_lp_design
from climpanel.regress import (
    Design,
    _RANK_TOL,
    _STAR_CUTOFFS,
    _factor,
    confidence_band,
    default_bandwidth,
    focal_driscoll_kraay,
    ols,
    significance_stars,
    vcov_driscoll_kraay,
    with_driscoll_kraay,
    within_transform,
)
from climpanel.errors import (
    BandwidthError,
    DegreesOfFreedomError,
    RankDeficiencyError,
    SampleError,
    SpecError,
)
import oracles
from oracles import (
    design_from_matrices,
    dk_direct_sum_lag0,
    dk_double_loop,
    dummy_ols_slopes,
    fe_panel,
    lsdv_residuals,
    newey_west_double_loop,
    panel_design,
    vcov_classical,
    with_series,
)


def grid(n):
    return quarter_range(QuarterIndex(2000, 1), QuarterIndex(2000, 1).offset(n - 1))


def simple_design(y, x, fixed_effects=(), n_regions=1, constant=True):
    """Single-region helper: y, x are 1-D arrays."""
    T = len(y) // n_regions
    return design_from_matrices(
        np.asarray(y, float).reshape(n_regions, T),
        [("x", np.asarray(x, float).reshape(n_regions, T))],
        grid(T), fixed_effects=fixed_effects,
        constant=constant,
    )


# ---------------------------------------------------------------------------
# within transformation
# ---------------------------------------------------------------------------

def test_region_constant_regressor_demeans_to_zero():
    ds = fe_panel(n_regions=4, n_quarters=10, seed=1)
    per_region = np.tile(np.array([[1.0], [2.0], [3.0], [4.0]]), (1, 10))
    ds = with_series(ds, "rc", per_region)
    design = panel_design(ds, "y", ("x1", "rc"), fixed_effects=("region",))
    within = within_transform(design)
    rc_col = within.X[:, within.names.index("rc")]
    assert np.all(rc_col == 0.0)


def test_singleton_groups_dropped_with_warning():
    rng = np.random.default_rng(3)
    design = simple_design(rng.normal(size=12), rng.normal(size=12),
                           fixed_effects=("time",))
    with pytest.warns(UserWarning, match="singleton"):
        with pytest.raises(SampleError):
            within_transform(design)


def test_two_way_demeaning_zero_means():
    ds = fe_panel(n_regions=6, n_quarters=14, seed=4)
    design = panel_design(ds, "y", ("x1",), fixed_effects=("region", "time"))
    within = within_transform(design)
    Z = np.column_stack([within.y, within.X])
    for codes in (within.region_codes, within.time_codes):
        for val in np.unique(codes):
            means = Z[codes == val].mean(axis=0)
            assert np.abs(means).max() < 1e-12


def _kept_rows(design, within):
    """[y | X] of design's rows that within_transform kept, found by their
    (region, quarter) codes."""
    def keys(d):
        return d.region_codes * (1 << 20) + d.time_codes
    return np.column_stack([design.y, design.X])[
        np.isin(keys(design), keys(within))]


def _ragged_design(rng, R, T, layout, fixed_effects=("region", "time")):
    """Random R x T panel with cells blanked by layout, on a data scale far
    from 1: 'random' blanks 40% of cells, so singleton groups appear;
    'gaps' blanks whole interior quarters; 'blocks' splits the regions into
    two groups observed in disjoint quarters, a disconnected sample."""
    y = 1e3 * rng.normal(size=(R, T)) + 5e3
    x1 = 1e3 * rng.normal(size=(R, T))
    x2 = rng.normal(size=(R, T)) + np.arange(T) / T
    if layout == "random":
        y[rng.random((R, T)) < 0.4] = np.nan
    elif layout == "gaps":
        y[:, rng.choice(np.arange(1, T - 1), size=3, replace=False)] = np.nan
        y[rng.random((R, T)) < 0.1] = np.nan
    else:
        y[: R // 2, T // 2:] = np.nan
        y[R // 2:, : T // 2] = np.nan
        y[rng.random((R, T)) < 0.1] = np.nan
    return design_from_matrices(
        y, [("x1", x1), ("x2", x2)], grid(T), fixed_effects=fixed_effects)


@pytest.mark.parametrize("fixed_effects",
                         [("region", "time"), ("time", "region"),
                          ("region",), ("time",)])
@pytest.mark.parametrize("layout", ["random", "gaps", "blocks"])
def test_within_transform_matches_lsdv_projection(layout, fixed_effects):
    rng = np.random.default_rng(30)
    for _ in range(20):
        R = int(rng.integers(2, 9))
        T = int(rng.integers(6, 30))
        design = _ragged_design(rng, R, T, layout, fixed_effects)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                within = within_transform(design)
            except SampleError:
                continue
        Z = _kept_rows(design, within)
        want, rank = lsdv_residuals(Z, within.region_codes,
                                    within.time_codes, fixed_effects)
        got = np.column_stack([within.y, within.X])
        assert np.abs(got - want).max() <= 1e-10 * np.abs(Z).max()
        assert within.absorbed == rank


def test_within_transform_singleton_drop_matches_lsdv_projection():
    # region r0 keeps one observation and quarter 2000Q4 one region
    rng = np.random.default_rng(31)
    y = 1e3 * rng.normal(size=(5, 12))
    y[0, 1:] = np.nan
    y[2:, 3] = np.nan
    design = design_from_matrices(
        y, [("x", rng.normal(size=(5, 12)))], grid(12),
        fixed_effects=("region", "time"))
    with pytest.warns(UserWarning, match="dropped 2 observation"):
        within = within_transform(design)
    assert within.nobs == design.nobs - 2
    Z = _kept_rows(design, within)
    want, rank = lsdv_residuals(Z, within.region_codes, within.time_codes,
                                ("region", "time"))
    got = np.column_stack([within.y, within.X])
    assert np.abs(got - want).max() <= 1e-10 * np.abs(Z).max()
    assert within.absorbed == rank


@pytest.mark.parametrize("fixed_effects", [
    ("county",), ("region", "county"), ("time", "time")])
def test_within_transform_rejects_unknown_fixed_effects(fixed_effects):
    rng = np.random.default_rng(33)
    design = Design(
        y=rng.normal(size=6), X=rng.normal(size=(6, 1)), names=("x",),
        region_codes=np.repeat([0, 1], 3), time_codes=np.tile([0, 1, 2], 2),
        fixed_effects=fixed_effects)
    with pytest.raises(SpecError, match="may name region and time, each "
                                        "once"):
        within_transform(design)
    with pytest.raises(SpecError):
        ols(design)


def test_absorbed_count_on_disconnected_sample():
    # regions a, b are observed only in 2000Q1-2002Q2 and c, d only in
    # 2002Q3-2004Q4: the dummies have rank 4 + 20 - 2, not 4 + 20 - 1
    rng = np.random.default_rng(32)
    y = rng.normal(size=(4, 20))
    y[:2, 10:] = np.nan
    y[2:, :10] = np.nan
    design = design_from_matrices(
        y, [("x", rng.normal(size=(4, 20)))], grid(20),
        fixed_effects=("region", "time"))
    fit = ols(design)
    _, rank = lsdv_residuals(design.y[:, None], design.region_codes,
                             design.time_codes, ("region", "time"))
    assert rank == 22
    assert fit.absorbed == 22
    assert fit.dof == 40 - 1 - 22


def _outcome(fn, *args):
    """fn(*args), or the BandwidthError or SampleError it raised as (type
    name, message), and the text of every warning it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except (BandwidthError, SampleError) as exc:
            out = (type(exc).__name__, str(exc))
    return out, [str(w.message) for w in caught]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(["random", "gaps", "blocks"]),
       fixed_effects=st.sampled_from([("region", "time"), ("time", "region"),
                                      ("region",), ("time",)]),
       n_focal=st.sampled_from([1, 2]),
       bandwidth=st.sampled_from([None, 0, 3]))
def test_absorption_and_focal_fit_keep_the_reference_bits(
        seed, layout, fixed_effects, n_focal, bandwidth):
    # the reference copies in oracles are the absorption before it summed
    # groups in one pass; every bit must survive. n_focal=2 leaves no
    # controls, as an LP with lags=0 does. The reference's ok is the older
    # partialled-norm rule, so ok is checked against ols on each focal
    # column's own design, and the bits where both sides fit
    rng = np.random.default_rng(seed)
    R, T = int(rng.integers(2, 9)), int(rng.integers(6, 30))
    design = _ragged_design(rng, R, T, layout, fixed_effects)
    got, got_warn = _outcome(within_transform, design)
    want, want_warn = _outcome(oracles.within_transform, design)
    assert got_warn == want_warn
    if isinstance(want, tuple):
        assert got == want
        return
    for field in ("y", "X", "region_codes", "time_codes"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    assert (got.absorbed, got.names, got.fixed_effects, got.demeaned) == (
        want.absorbed, want.names, want.fixed_effects, want.demeaned)
    hac = HACSpec(bandwidth)
    want_fit, want_warn = _outcome(oracles.focal_driscoll_kraay, design,
                                   n_focal, hac)
    for d in (design, got):
        got_fit, got_warn = _outcome(focal_driscoll_kraay, d, n_focal, hac)
        assert got_warn == (want_warn if d is design else [])
        if isinstance(want_fit, tuple):
            assert got_fit == want_fit
            continue
        ok = got_fit.ok
        assert ok.tolist() == [_ols_accepts(got, n_focal, j)
                               for j in range(n_focal)]
        both = ok & want_fit.ok
        for field in ("coef", "se"):
            assert np.array_equal(getattr(got_fit, field)[both],
                                  getattr(want_fit, field)[both])
            assert np.isnan(getattr(got_fit, field)[~ok]).all()
        assert (got_fit.nobs, got_fit.dof) == (want_fit.nobs, want_fit.dof)


def _ols_accepts(d, n_focal, j):
    """Whether ols fits focal column j of the absorbed design d on the
    controls, the columns past the first n_focal."""
    cols = [j, *range(n_focal, d.X.shape[1])]
    try:
        ols(d.replace(X=d.X[:, cols], names=tuple(d.names[c] for c in cols)))
    except (RankDeficiencyError, DegreesOfFreedomError):
        return False
    return True


@pytest.mark.parametrize("fixed_effects", [("region", "time"), ("region",),
                                           ("time",)])
def test_absorbed_y_and_x_are_views_of_one_c_ordered_block(fixed_effects):
    # the QR, einsum and matmul kernels downstream see this layout; an
    # F-ordered X moves the last bits of every estimate
    d = within_transform(_ragged_design(np.random.default_rng(34), 6, 20,
                                        "gaps", fixed_effects))
    block = d.y.base
    assert block is d.X.base
    assert block.flags.c_contiguous
    assert block.shape == (d.nobs, d.X.shape[1] + 1)
    assert np.shares_memory(block[:, 0], d.y) and d.y.strides == (
        block.strides[0],)
    assert d.X.strides == block.strides
    assert np.array_equal(block, np.column_stack([d.y, d.X]))


# ---------------------------------------------------------------------------
# OLS
# ---------------------------------------------------------------------------

def test_exact_fit():
    x = np.arange(1.0, 13.0)
    design = simple_design(2.0 * x, x, constant=False)
    fit = ols(design)
    assert fit.coef[0] == pytest.approx(2.0, rel=1e-14)
    np.testing.assert_allclose(fit.resid_vec, 0.0, atol=1e-12)
    assert vcov_classical(fit)[0, 0] == pytest.approx(0.0, abs=1e-24)


def test_duplicated_column_rank_error_names_both():
    rng = np.random.default_rng(5)
    x = rng.normal(size=20)
    time = grid(20)
    design = design_from_matrices(
        rng.normal(size=(1, 20)),
        [("x_first", x.reshape(1, 20)), ("x_second", x.reshape(1, 20))],
        time, constant=False,
    )
    with pytest.raises(RankDeficiencyError) as err:
        ols(design)
    assert "x_first" in err.value.columns
    assert "x_second" in err.value.columns


@pytest.mark.parametrize("build", [
    lambda ds, window: build_lp_design(
        ds, LPSpec("price", ("x",), lags=1, sample=window), 0),
    lambda ds, window: build_ardl_design(
        ds, ARDLSpec("price", ("x",), p=1, sample=window)),
], ids=["lp", "ardl"])
def test_outcome_blank_over_the_window_has_no_usable_rows(build):
    # 2 regions x 2 quarters of the window, the outcome blank in all of them
    rng = np.random.default_rng(7)
    price = np.exp(rng.normal(size=(2, 12)))
    price[:, 4:6] = np.nan
    ds = PanelDataset(["a", "b"], grid(12),
                      {"price": price, "x": rng.normal(size=(2, 12))})
    with pytest.raises(SampleError) as err:
        build(ds, ("2001Q1", "2001Q2"))
    assert str(err.value) == ("no usable observations: all 4 rows dropped "
                              "listwise")


def test_zero_column_reported_as_degenerate():
    rng = np.random.default_rng(6)
    time = grid(15)
    design = design_from_matrices(
        rng.normal(size=(1, 15)),
        [("live", rng.normal(size=(1, 15))), ("dead", np.zeros((1, 15)))],
        time, constant=False,
    )
    with pytest.raises(RankDeficiencyError, match="no variation"):
        ols(design)


def test_slope_recovery_monte_carlo():
    # y = 1.5 x + e on a 7 x 100 panel; mean estimate over seeded reps
    reps = 60
    estimates = []
    for seed in range(reps):
        ds = fe_panel(n_regions=7, n_quarters=100, betas=(1.5,),
                      region_sd=0.5, time_sd=0.5, seed=seed)
        fit = ols(panel_design(ds, "y", ("x1",),
                               fixed_effects=("region", "time")))
        estimates.append(fit.coef[fit.names.index("x1")])
    mean = float(np.mean(estimates))
    mc_se = float(np.std(estimates, ddof=1) / math.sqrt(reps))
    assert abs(mean - 1.5) < 3 * mc_se


def test_residuals_orthogonal_to_design():
    ds = fe_panel(n_regions=5, n_quarters=30, betas=(1.0, -2.0), seed=7)
    fit = ols(panel_design(ds, "y", ("x1", "x2"),
                           fixed_effects=("region", "time")))
    cross = fit.within_x.T @ fit.resid_vec
    scale = np.linalg.norm(fit.within_x, axis=0) * np.linalg.norm(fit.resid_vec)
    assert np.all(np.abs(cross) / scale < 1e-8)


def test_lsdv_equivalence_sample():
    rng = np.random.default_rng(8)
    for rep in range(25):
        R = int(rng.integers(3, 11))
        T = int(rng.integers(8, 51))
        fe = [("region",), ("time",), ("region", "time")][rep % 3]
        ds = fe_panel(n_regions=R, n_quarters=T, betas=(1.2, -0.4),
                      seed=1000 + rep)
        design = panel_design(ds, "y", ("x1", "x2"), fixed_effects=fe)
        fit = ols(design)
        oracle = dummy_ols_slopes(design.y, design.X, design.region_codes,
                                  design.time_codes, fe)
        np.testing.assert_allclose(fit.coef, oracle, rtol=1e-8)


def test_frisch_waugh_partialling():
    ds = fe_panel(n_regions=6, n_quarters=25, betas=(0.8, -1.1), seed=9)
    fe = ("region", "time")
    full = ols(panel_design(ds, "y", ("x1", "x2"), fixed_effects=fe))

    def residual_grid(outcome):
        # the panel is balanced, so the fit keeps every design row
        design = panel_design(ds, outcome, ("x2",), fixed_effects=fe)
        grid = np.full((ds.n_regions, ds.n_quarters), np.nan)
        grid[design.region_codes,
             design.time_codes - design.time_codes.min()] = \
            ols(design).resid_vec
        return grid

    resid_y = residual_grid("y")
    resid_x1 = residual_grid("x1")
    partial = ols(design_from_matrices(
        resid_y, [("x1", resid_x1)], ds.time, constant=False))
    assert partial.coef[0] == pytest.approx(full.coef[full.names.index("x1")],
                                           abs=1e-10)


# ---------------------------------------------------------------------------
# classical covariance
# ---------------------------------------------------------------------------

def test_classical_single_regressor_closed_form():
    rng = np.random.default_rng(11)
    x = rng.normal(size=40)
    y = 0.5 * x + rng.normal(size=40)
    fit = ols(simple_design(y, x, constant=False))
    sigma2 = fit.resid_vec @ fit.resid_vec / (40 - 1)
    assert fit.vcov[0, 0] == pytest.approx(sigma2 / (x @ x), rel=1e-12)


def test_classical_scaling_homogeneity():
    rng = np.random.default_rng(12)
    x = rng.normal(size=30)
    y = x + rng.normal(size=30)
    fit = ols(simple_design(y, x, constant=False))
    base = vcov_classical(fit)
    doubled = fit.replace(resid_vec=2.0 * fit.resid_vec)
    np.testing.assert_allclose(vcov_classical(doubled), 4.0 * base, rtol=1e-14)


def test_classical_dof_error():
    rng = np.random.default_rng(13)
    # two observations, x plus const: rank 2 leaves zero residual dof
    design = simple_design(rng.normal(size=2), rng.normal(size=2))
    with pytest.raises(DegreesOfFreedomError):
        ols(design)


# ---------------------------------------------------------------------------
# Driscoll-Kraay covariance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bandwidth", [0, 1, 4])
@pytest.mark.parametrize("small_sample", [True, False])
def test_dk_single_unit_equals_newey_west(bandwidth, small_sample):
    rng = np.random.default_rng(14 + bandwidth)
    n = 60
    x = rng.normal(size=n)
    y = 1.0 + 0.5 * x + rng.normal(size=n)
    fit = ols(simple_design(y, x))
    got = vcov_driscoll_kraay(fit, HACSpec(bandwidth, small_sample))
    X = np.column_stack([x, np.ones(n)])
    want = newey_west_double_loop(X, fit.resid_vec, bandwidth, small_sample)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_dk_lag0_constant_residuals_proportional_to_classical():
    rng = np.random.default_rng(15)
    n = 50
    x = rng.normal(size=n)
    fit = ols(simple_design(x + rng.normal(size=n), x, constant=False))
    const_resid = fit.replace(resid_vec=np.full(n, 0.7))
    dk = vcov_driscoll_kraay(const_resid, HACSpec(0, small_sample=False))
    classical = vcov_classical(const_resid)
    ratio = dk[0, 0] / classical[0, 0]
    # dk = c^2 (X'X)^-1, classical = (n c^2 / dof) (X'X)^-1
    assert ratio == pytest.approx(fit.dof / n, rel=1e-12)


def test_dk_lag0_equals_direct_sum():
    ds = fe_panel(n_regions=5, n_quarters=20, betas=(0.9,), seed=16)
    fit = ols(panel_design(ds, "y", ("x1",), fixed_effects=("region",)))
    raw = vcov_driscoll_kraay(fit, HACSpec(0, small_sample=False))
    want = dk_direct_sum_lag0(fit.within_x, fit.resid_vec, fit.time_codes)
    np.testing.assert_allclose(raw, want, rtol=1e-10)
    # the small-sample flag applies the dof-aware factor nobs/dof
    adj = vcov_driscoll_kraay(fit, HACSpec(0, small_sample=True))
    np.testing.assert_allclose(adj, raw * fit.nobs / fit.dof, rtol=1e-12)


def test_dk_dense_grid_matches_double_loop_with_missing_periods():
    # 101 quarters, two of them absent from the sample: the rule bandwidth
    # must come from the 99 periods present (L=3), not the 101-quarter span
    rng = np.random.default_rng(33)
    x1 = rng.normal(size=(3, 101))
    x2 = rng.normal(size=(3, 101))
    y = 0.5 * x1 - 0.2 * x2 + rng.normal(size=(3, 101))
    y[:, [40, 70]] = np.nan
    y[1, 10] = np.nan
    fit = ols(design_from_matrices(
        y, [("x1", x1), ("x2", x2)], grid(101), fixed_effects=("region",)))
    assert len(np.unique(fit.time_codes)) == 99
    assert (default_bandwidth(99), default_bandwidth(101)) == (3, 4)
    for bandwidth, L in ((None, 3), (0, 0), (2, 2), (6, 6)):
        got = vcov_driscoll_kraay(fit, HACSpec(bandwidth))
        want = dk_double_loop(fit.within_x, fit.resid_vec, fit.time_codes,
                              L, scale=fit.nobs / fit.dof)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    with pytest.raises(BandwidthError, match="< 99 time periods"):
        vcov_driscoll_kraay(fit, HACSpec(99))


def test_dk_bandwidth_error():
    ds = fe_panel(n_regions=3, n_quarters=10, seed=17)
    fit = ols(panel_design(ds, "y", ("x1",), fixed_effects=("region",)))
    with pytest.raises(BandwidthError):
        vcov_driscoll_kraay(fit, HACSpec(10))


def test_dk_psd_on_random_panels():
    rng = np.random.default_rng(18)
    for rep in range(1000):
        R = int(rng.integers(2, 8))
        T = int(rng.integers(10, 30))
        L = int(rng.integers(0, 6))
        ds = fe_panel(n_regions=R, n_quarters=T, betas=(1.0, 0.3),
                      seed=5000 + rep)
        fe = [(), ("region",), ("region", "time")][rep % 3]
        fit = ols(panel_design(ds, "y", ("x1", "x2"), fixed_effects=fe))
        V = vcov_driscoll_kraay(fit, HACSpec(L))
        np.testing.assert_allclose(V, V.T, atol=1e-14)
        eig = np.linalg.eigvalsh(V)
        assert eig.min() >= -1e-10 * np.trace(V)


def _kernel_design(kind, n, k, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, k))
    if kind == "scaled":
        X[:, 1] *= 1e-3
        X[:, k - 1] *= 1e3
        X += 5.0
    elif kind == "zero":
        X[:, 2] = 0.0
    elif kind == "duplicate":
        X[:, 3] = X[:, 0]
    elif kind == "collinear":
        X[:, 4] = X[:, 0] - 2.0 * X[:, 2]
        X[:, 1] = 0.0
    return X


def _pivoted_rank(X):
    """Rank under LAPACK dgeqp3's column-pivoted QR: the count of |R_jj|
    above _RANK_TOL times the largest, |R_11|."""
    _, R_ref, _ = linalg.qr(X, mode="economic", pivoting=True)
    d_ref = np.abs(np.diag(R_ref))
    return int((d_ref > _RANK_TOL * d_ref[0]).sum())


@pytest.mark.parametrize("n,k", [(7000, 8), (7000, 13), (1700, 20), (21, 20),
                                 (12, 12)])
@pytest.mark.parametrize("kind", ["random", "scaled", "zero", "duplicate",
                                  "collinear"])
def test_rank_matches_lapack_dgeqp3(kind, n, k):
    # the singular-value rank against LAPACK's column-pivoted QR rule, and
    # the null-space basis against the design itself
    X = _kernel_design(kind, n, k, seed=n + k)
    y = np.random.default_rng(n * k).normal(size=(n, 1))
    R, qty, norms, rank, null = _factor(X, y)
    assert rank == _pivoted_rank(X)
    assert rank == {"random": k, "scaled": k, "zero": k - 1,
                    "duplicate": k - 1, "collinear": k - 2}[kind]
    np.testing.assert_allclose(norms, np.linalg.norm(X, axis=0), rtol=1e-13)
    # R'R = X'X and R'(Q'y) = X'y, so Q R = X with the same Q for y
    gram = np.abs(X).max() ** 2 * n
    np.testing.assert_allclose(R.T @ R, X.T @ X, atol=1e-13 * gram)
    np.testing.assert_allclose(R.T @ qty, X.T @ y,
                               atol=1e-13 * gram / np.abs(X).max())
    # the rows of null are orthonormal directions that X maps to zero
    assert null.shape == (k - rank, k)
    np.testing.assert_allclose(null @ null.T, np.eye(k - rank), atol=1e-13)
    np.testing.assert_allclose(X @ null.T, 0.0,
                               atol=1e-13 * math.sqrt(gram))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_extra=st.integers(0, 40),
       k=st.integers(2, 12), n_dependent=st.integers(1, 3),
       noise=st.floats(-17.0, -6.0), spread=st.floats(0.0, 3.0))
def test_rank_is_never_above_the_pivoted_qr_rank(seed, n_extra, k,
                                                 n_dependent, noise, spread):
    # near-collinear designs around the tolerance: column scales spread
    # over 10^(+-spread), dependent columns a mix of the others plus noise
    # of relative size 10^noise. sigma_min <= |Rp_kk| and |Rp_11| <= sigma_max,
    # so a design the pivoted rule calls rank deficient is rank deficient
    # here too; beyond that bound, the singular-value rank is never the
    # larger on such designs
    rng = np.random.default_rng(seed)
    n = k + n_extra
    X = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-spread, spread, k)
    for j in rng.choice(k, size=min(n_dependent, k - 1), replace=False):
        others = np.delete(np.arange(k), j)
        mix = X[:, others] @ rng.normal(size=k - 1)
        X[:, j] = mix + 10.0 ** noise * np.linalg.norm(mix) * rng.normal(
            size=n) / math.sqrt(n)
    assert _factor(X, np.ones((n, 1)))[3] <= _pivoted_rank(X)


def test_rank_error_names_collinear_columns_in_design_order():
    rng = np.random.default_rng(61)
    n = 40
    X = rng.normal(size=(n, 7))
    X[:, 3] = X[:, 0]                    # one pair
    X[:, 6] = 2.0 * X[:, 4]              # another pair
    X[:, 2] = 0.0                        # no variation
    names = tuple(f"x{j}" for j in range(7))
    design = Design(y=rng.normal(size=n), X=X, names=names,
                    region_codes=np.zeros(n, dtype=int),
                    time_codes=np.arange(n), demeaned=True)
    with pytest.raises(RankDeficiencyError) as err:
        ols(design)
    assert err.value.columns == ("x0", "x2", "x3", "x4", "x6")
    assert str(err.value) == (
        "design matrix is rank deficient: "
        "'x2' has no variation after FE absorption; "
        "['x0', 'x3', 'x4', 'x6'] are collinear")
    with pytest.raises(RankDeficiencyError) as err:
        ols(design.replace(X=X[:, :4], names=names[:4]))
    assert err.value.columns == ("x0", "x2", "x3")
    with pytest.raises(RankDeficiencyError) as err:
        ols(design.replace(X=X[:, [0, 1, 3]], names=("x0", "x1", "x3")))
    assert err.value.columns == ("x0", "x3")
    assert str(err.value) == ("design matrix is rank deficient: "
                              "['x0', 'x3'] are collinear")


def test_normal_band_multiplier_matches_scipy_ndtri():
    # confidence_band takes its normal quantile from the standard library;
    # it agrees with scipy's ndtri to within 1e-15 relative at every level
    ds = fe_panel(n_regions=4, n_quarters=20, seed=19)
    fit = ols(panel_design(ds, "y", ("x1",), fixed_effects=("region",)))
    unit = fit.replace(coef=np.zeros(1), se=np.ones(1))
    rng = np.random.default_rng(60)
    levels = np.concatenate([
        [0.9, 0.95, 0.99],
        np.linspace(0.0, 1.0, 1001)[:-1],
        rng.random(1000),
        1.0 - 10.0 ** -rng.uniform(0.0, 15.0, 500),    # far upper tail
    ])
    got = np.array([confidence_band(unit, float(v))[1][0] for v in levels])
    np.testing.assert_allclose(got, special.ndtri((1.0 + levels) / 2.0),
                               rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# bands, stars, bandwidth rule
# ---------------------------------------------------------------------------

def test_confidence_band_multiplier():
    ds = fe_panel(n_regions=4, n_quarters=20, seed=19)
    fit = ols(panel_design(ds, "y", ("x1",), fixed_effects=("region",)))
    lo, hi = confidence_band(fit, 0.90)
    mult = (hi[0] - fit.coef[0]) / fit.se[0]
    assert abs(mult - 1.6449) < 5e-5


def test_confidence_band_degenerate_cases():
    ds = fe_panel(n_regions=4, n_quarters=20, seed=20)
    fit = ols(panel_design(ds, "y", ("x1",), fixed_effects=("region",)))
    zero_se = fit.replace(se=np.zeros_like(fit.se))
    lo, hi = confidence_band(zero_se, 0.90)
    np.testing.assert_array_equal(lo, fit.coef)
    np.testing.assert_array_equal(hi, fit.coef)
    lo, hi = confidence_band(fit, 0.0)
    np.testing.assert_array_equal(lo, fit.coef)
    np.testing.assert_array_equal(hi, fit.coef)
    with pytest.raises(ValueError):
        confidence_band(fit, 1.0)


def test_default_bandwidth_rule():
    assert default_bandwidth(100) == 4
    assert default_bandwidth(88) == 3
    assert default_bandwidth(25) == math.floor(4 * (25 / 100) ** (2 / 9))
    # floor(4 (T/100)^(2/9)) reaches k at T = 100 (k/4)^4.5: 0.2, 4.4, 27.4,
    # 100, 272.8 and 619.9 for k = 1..6; in floating point T = 620 is
    # still 5
    steps = {1: 1, 4: 1, 5: 2, 27: 2, 28: 3, 99: 3, 100: 4, 272: 4, 273: 5,
             620: 5, 621: 6}
    assert {T: default_bandwidth(T) for T in steps} == steps


def test_star_cutoffs_pinned():
    assert _STAR_CUTOFFS == ((2.5758293035489004, "***"),
                             (1.959963984540054, "**"),
                             (1.6448536269514722, "*"))


def test_significance_stars_convention():
    assert significance_stars(0.012, 0.1046) == ""
    assert significance_stars(2.58 * 0.1, 0.1) == "***"
    assert significance_stars(1.97 * 0.1, 0.1) == "**"
    assert significance_stars(1.65 * 0.1, 0.1) == "*"
    assert significance_stars(1.0, 0.0) == "***"
    assert significance_stars(0.0, 0.0) == ""


def test_vcov_se_consistency():
    ds = fe_panel(n_regions=5, n_quarters=16, betas=(1.0, 2.0), seed=22)
    fit = with_driscoll_kraay(
        ols(panel_design(ds, "y", ("x1", "x2"),
                         fixed_effects=("region",))),
        HACSpec(2),
    )
    np.testing.assert_allclose(fit.se, np.sqrt(np.diag(fit.vcov)), rtol=1e-14)


@pytest.mark.parametrize("layout", ["random", "blocks"])
def test_focal_driscoll_kraay_matches_each_own_regression(layout):
    # three focal columns sharing two controls on a ragged two-way sample;
    # each focal entry must equal the full regression of y on that column
    # and the controls, with the double-loop Driscoll-Kraay as the SE oracle
    rng = np.random.default_rng(50)
    R, T, L = 7, 40, 3
    mats = {n: rng.normal(size=(R, T)) for n in ("f1", "f2", "f3", "c1", "c2")}
    mats["f2"] += 0.8 * mats["c1"]
    y = mats["f1"] - 0.5 * mats["f3"] + mats["c2"] + rng.normal(size=(R, T))
    if layout == "random":
        y[rng.random((R, T)) < 0.3] = np.nan
    else:
        y[: R // 2, T // 2:] = np.nan
        y[R // 2:, : T // 2] = np.nan
    time = grid(T)

    def design(names):
        return design_from_matrices(y, [(n, mats[n]) for n in names],
                                    time, ("region", "time"))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = focal_driscoll_kraay(design(("f1", "f2", "f3", "c1", "c2")), 3,
                                   HACSpec(L))
        for j, name in enumerate(("f1", "f2", "f3")):
            fit = ols(design((name, "c1", "c2")))
            V = dk_double_loop(fit.within_x, fit.resid_vec, fit.time_codes, L,
                               scale=fit.nobs / fit.dof)
            assert got.ok[j]
            assert (got.nobs, got.dof) == (fit.nobs, fit.dof)
            assert got.coef[j] == pytest.approx(fit.coef[0], rel=1e-12)
            assert got.se[j] == pytest.approx(math.sqrt(V[0, 0]), rel=1e-10)
