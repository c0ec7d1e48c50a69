"""ARDL design, long-run effects and delta-method errors."""
import math
import re

import numpy as np
import pytest

from climpanel import (
    ARDLSpec,
    HACSpec,
    PanelDataset,
    annualize,
    estimate_ardl,
    quarter_range,
    QuarterIndex,
)
from climpanel import ardl
from climpanel.ardl import build_ardl_design, long_run_from_coefficients
from climpanel.errors import (
    ClimPanelError,
    RankDeficiencyError,
    SampleError,
    UnitRootError,
)
from climpanel.regress import _regressor_block, with_driscoll_kraay
from climpanel.simulate import ardl_panel
import oracles
from oracles import ardl_steady_state, peak_traced, with_series


def _sum_block(fit, var, p):
    return sum(fit.coef[fit.names.index(f"d_{var}_lag{l}")]
               for l in range(p + 1))


def _sum_phi(fit, outcome, p):
    return sum(fit.coef[fit.names.index(f"d_{outcome}_lag{l}")]
               for l in range(1, p + 1))


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

def test_design_column_count_with_region_fe():
    ds = _four_block_panel(seed=1)
    p = 3
    spec = ARDLSpec("price", block=("b1", "b2", "b3", "b4"), p=p, m=30)
    design = build_ardl_design(ds, spec)
    assert design.X.shape[1] == p + 4 * (p + 1)


def _four_block_panel(seed=0, n_regions=4, n_quarters=60):
    ds = ardl_panel(n_regions=n_regions, n_quarters=n_quarters, seed=seed)
    rng = np.random.default_rng(900 + seed)
    for name in ("b1", "b2", "b3", "b4"):
        ds = with_series(ds, name,
                         rng.normal(size=(n_regions, n_quarters)))
    return ds


def test_design_usable_sample_arithmetic():
    # p=4 on 88 quarters: rows need dy lag 4 and dx lag 4, so t >= 5 and
    # usable T per region is 88 - 5
    ds = ardl_panel(n_regions=7, n_quarters=88, seed=3)
    design = build_ardl_design(ds, ARDLSpec("price", block=("driver",), p=4,
                                            m=30))
    assert design.nobs == 7 * (88 - 5)


def test_constant_anomalies_rank_error():
    T = 40
    time = quarter_range(QuarterIndex(2000, 1), QuarterIndex(2000, 1).offset(T - 1))
    rng = np.random.default_rng(2)
    price = 100 * np.exp(np.cumsum(rng.normal(0, 0.01, (1, T)), axis=1))
    ds = PanelDataset(["only"], time,
                      {"price": price, "flat": np.full((1, T), 2.0)})
    with pytest.raises(RankDeficiencyError):
        estimate_ardl(ds, ARDLSpec("price", block=("flat",), p=1, m=30))


def test_lag_order_past_the_panel_builds_no_lag_column(monkeypatch):
    ds = _four_block_panel(seed=2, n_regions=3, n_quarters=20)
    peaks = []
    monkeypatch.setattr(ardl, "_regressor_block",
                        peak_traced(_regressor_block, peaks))
    spec = ARDLSpec("price", block=("b1", "b2"), p=21)
    with pytest.raises(SampleError, match=r"^no usable observations: all 60 "
                       r"rows dropped listwise$"):
        build_ardl_design(ds, spec)
    with pytest.raises(SampleError, match="all 24 rows dropped listwise"):
        build_ardl_design(ds, spec.replace(sample=("2003Q1", "2004Q4")))
    # the outcome, every block series and the window are still checked first
    for bad, message in (
            (spec.replace(outcome="b1"),
             "log requires strictly positive values: 'b1'"),
            (spec.replace(block=("b1", "nope")), "unknown variable 'nope'"),
            (spec.replace(sample=("1990Q1", "1995Q4")),
             "sample window 1990Q1..1995Q4 is empty")):
        with pytest.raises(ClimPanelError, match=re.escape(message)):
            build_ardl_design(ds, bad)
    # one lag short of the panel builds no lag column either: the first
    # difference takes a quarter, so no row survives
    with pytest.raises(SampleError, match="all 60 rows dropped listwise"):
        build_ardl_design(ds, spec.replace(p=19))
    # only the window and the lag-order calls reach the block builder, and
    # each raised holding less than its smallest block would: 24 cells by
    # the 59 lag columns of p = 19
    assert len(peaks) == 4
    assert max(peaks) < 8 * 24 * 59


# ---------------------------------------------------------------------------
# long-run recovery
# ---------------------------------------------------------------------------

def test_theta_recovery_against_steady_state_oracle():
    phi, beta = (0.5,), (0.2, 0.1)
    truth = ardl_steady_state(phi, beta)
    assert truth == pytest.approx((0.2 + 0.1) / (1 - 0.5), abs=1e-12)
    reps = 40
    thetas = []
    for seed in range(reps):
        ds = ardl_panel(phi=phi, beta=beta, seed=700 + seed)
        res = estimate_ardl(ds, ARDLSpec("price", block=("driver",), p=1, m=30))
        thetas.append(res.table.effects[0].theta)
        # long-run identity must hold exactly in every fit
        lhs = res.table.effects[0].theta * res.table.phi
        rhs = _sum_block(res.fit, "driver", 1)
        assert abs(lhs - rhs) < 1e-12
    mean = float(np.mean(thetas))
    mc_se = float(np.std(thetas, ddof=1) / math.sqrt(reps))
    assert abs(mean - truth) < 3 * mc_se


def test_long_run_test_size():
    # theta = 0 (beta = 0, phi = 0.5, p = 1) on 32 regions x 88 quarters:
    # the two-sided 5% test of theta, ** or *** in the table, should reject
    # 5% of the time. Classical delta-method errors hold that; Driscoll-Kraay
    # errors over-reject mildly at this T (Driscoll & Kraay 1998), so they
    # get a ceiling. Seeds 0..699 reject 6.0% and 7.7% (Monte Carlo SE
    # about 0.9 pp).
    reps = 700
    spec = ARDLSpec("price", block=("driver",), p=1, m=30)
    rejected = {"classical": 0, "driscoll-kraay": 0}
    for seed in range(reps):
        ds = ardl_panel(n_regions=32, n_quarters=88, phi=(0.5,), beta=(0.0,),
                        seed=seed)
        fit = estimate_ardl(ds, spec).fit
        for kind, f in (("classical", fit),
                        ("driscoll-kraay",
                         with_driscoll_kraay(fit, HACSpec(None)))):
            effect, = long_run_from_coefficients(
                f.coef, f.vcov, f.names, spec.outcome, spec.block, spec.p,
                spec.m, f.nobs).effects
            rejected[kind] += len(effect.stars) >= 2
    assert abs(rejected["classical"] / reps - 0.05) <= 0.02
    assert rejected["driscoll-kraay"] / reps <= 0.09


def test_phi_zero_dgp_theta_close_to_beta_sum():
    ds = ardl_panel(phi=(0.0,), beta=(0.2, 0.1), seed=42)
    res = estimate_ardl(ds, ARDLSpec("price", block=("driver",), p=1, m=30))
    beta_sum = _sum_block(res.fit, "driver", 1)
    assert res.table.phi == pytest.approx(1.0, abs=0.1)
    assert res.table.effects[0].theta == pytest.approx(beta_sum, rel=0.15)


def test_delta_method_reduces_to_ols_se_when_p0():
    # no autoregressive lag: phi is 1 with no error, so theta and its error
    # are the fit's own, bit for bit, with classical and with DK errors
    ds = ardl_panel(seed=5)
    for hac in (None, HACSpec(None)):
        res = estimate_ardl(ds, ARDLSpec("price", block=("driver",), p=0,
                                         m=30, hac=hac))
        i = res.fit.names.index("d_driver_lag0")
        table, effect = res.table, res.table.effects[0]
        assert (table.phi, table.phi_se, table.phi_stars) == (1.0, 0.0, "")
        assert effect.theta == res.fit.coef[i]
        assert effect.se == res.fit.se[i]


def test_reparameterization_scaling():
    ds = ardl_panel(seed=6)
    c = 5.0
    scaled = with_series(ds, "driver", c * np.asarray(ds.values("driver")))
    spec = ARDLSpec("price", block=("driver",), p=1, m=30)
    a = estimate_ardl(ds, spec).table.effects[0]
    b = estimate_ardl(scaled, spec).table.effects[0]
    assert b.theta == pytest.approx(a.theta / c, rel=1e-10)
    assert b.theta / b.se == pytest.approx(a.theta / a.se, rel=1e-10)


def test_unit_root_guard():
    names = ("d_y_lag1", "d_x_lag0", "d_x_lag1")
    vcov = np.eye(3) * 1e-4
    # the floor on |1 - sum(phi)| is 1e-6: pinned on either side of it
    for phi_sum in (1.0, 1.0 - 0.5e-6, 1.0 + 0.5e-6):
        with pytest.raises(UnitRootError):
            long_run_from_coefficients(np.array([phi_sum, 0.3, 0.1]), vcov,
                                       names, "y", ("x",), 1, 30, 100)
    for phi_sum in (1.0 - 2e-6, 1.0 + 2e-6):
        table = long_run_from_coefficients(np.array([phi_sum, 0.3, 0.1]),
                                           vcov, names, "y", ("x",), 1, 30,
                                           100)
        assert table.effects[0].theta == pytest.approx(0.4 / (1.0 - phi_sum),
                                                       rel=1e-9)


def test_phi_se_from_joint_covariance():
    names = ("d_y_lag1", "d_x_lag0", "d_x_lag1")
    coef = np.array([0.3, 0.4, 0.1])
    vcov = np.diag([0.01, 0.0025, 0.0016])
    table = long_run_from_coefficients(coef, vcov, names, "y", ("x",), 1, 30,
                                       50)
    assert table.phi == pytest.approx(0.7, abs=1e-15)
    assert table.phi_se == pytest.approx(0.1, rel=1e-12)
    # theta = 0.5 / 0.7; delta gradient: 1/phi on betas, theta/phi on phi
    theta = table.effects[0].theta
    assert theta == pytest.approx(0.5 / 0.7, rel=1e-15)
    g = np.array([theta / 0.7, 1 / 0.7, 1 / 0.7])
    assert table.effects[0].se == pytest.approx(
        math.sqrt(g @ vcov @ g), rel=1e-12)


def test_long_run_se_matches_the_numerical_jacobian():
    # a full vcov with nonzero cov(phi, beta) and theta far from 0: the
    # gradient's sign on phi no longer cancels in g'Vg
    names = ("d_y_lag1", "d_y_lag2", "d_x_lag0", "d_x_lag1", "d_x_lag2",
             "d_z_lag0", "d_z_lag1", "d_z_lag2", "const")
    rng = np.random.default_rng(11)
    coef = np.array([0.3, 0.15, 0.4, -0.1, 0.25, -0.6, 0.2, 0.05, 1.0])
    a = rng.normal(0, 0.05, (len(names), len(names)))
    vcov = a @ a.T + np.eye(len(names)) * 1e-4
    table = long_run_from_coefficients(coef, vcov, names, "y", ("x", "z"), 2,
                                       30, 200)
    for effect in table.effects:
        theta, se = oracles.delta_method_numeric(coef, vcov, names, "y",
                                                 effect.variable, 2)
        assert effect.theta == pytest.approx(theta, rel=1e-12)
        assert effect.se == pytest.approx(se, rel=1e-7)


@pytest.mark.parametrize("p", [1, 2])
def test_fitted_long_run_se_matches_the_numerical_jacobian(p):
    ds = _four_block_panel(seed=p, n_regions=6, n_quarters=80)
    spec = ARDLSpec("price", block=("driver", "b1"), p=p, m=30)
    res = estimate_ardl(ds, spec)
    for fit in (res.fit, with_driscoll_kraay(res.fit, HACSpec(None))):
        table = long_run_from_coefficients(fit.coef, fit.vcov, fit.names,
                                           "price", spec.block, p, 30,
                                           fit.nobs)
        for effect in table.effects:
            theta, se = oracles.delta_method_numeric(
                fit.coef, fit.vcov, fit.names, "price", effect.variable, p)
            assert effect.theta == pytest.approx(theta, rel=1e-12)
            assert effect.se == pytest.approx(se, rel=1e-7)


# ---------------------------------------------------------------------------
# annualization
# ---------------------------------------------------------------------------

def test_annualize_values():
    got = annualize(0.0273, 30)
    assert abs(got - 0.0273 * 2 / 31) < 1e-15
    assert 0.00170 <= got <= 0.00180
    assert f"{got:.4f}" == "0.0018"  # 4 dp rendering used in summaries
    assert annualize(0.0, 17) == 0.0
    assert annualize(0.42, 1) == 0.42
    with pytest.raises(ValueError):
        annualize(1.0, 0)
