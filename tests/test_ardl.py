"""ARDL design, long-run effects, delta-method errors, suite orchestration."""
import math

import numpy as np
import pytest

from climpanel import (
    ARDLSpec,
    PanelDataset,
    annualize,
    ardl_suite,
    attach_anomaly_features,
    build_ardl_design,
    estimate_ardl,
    quarter_range,
    QuarterIndex,
    select_lag_bic,
)
from climpanel.ardl import default_block, long_run_from_coefficients
from climpanel.errors import RankDeficiencyError, UnitRootError
from climpanel.simulate import ardl_panel, climate_panel
from oracles import ardl_steady_state


def _sum_block(fit, var, p):
    return sum(fit.coef[fit.names.index(f"d_{var}_lag{l}")]
               for l in range(p + 1))


def _sum_phi(fit, outcome, p):
    return sum(fit.coef[fit.names.index(f"d_{outcome}_lag{l}")]
               for l in range(1, p + 1))


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

def test_design_column_count_with_constant():
    ds = _four_block_panel(seed=0)
    p = 2
    spec = ARDLSpec("price", block=("b1", "b2", "b3", "b4"), p=p, m=30,
                    fixed_effects=())
    design = build_ardl_design(ds, spec)
    assert design.X.shape[1] == 1 + p + 4 * (p + 1)
    assert design.names[-1] == "const"


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
        ds = ds.with_series(name, rng.normal(size=(n_regions, n_quarters)))
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


def test_phi_zero_dgp_theta_close_to_beta_sum():
    ds = ardl_panel(phi=(0.0,), beta=(0.2, 0.1), seed=42)
    res = estimate_ardl(ds, ARDLSpec("price", block=("driver",), p=1, m=30))
    beta_sum = _sum_block(res.fit, "driver", 1)
    assert res.table.phi == pytest.approx(1.0, abs=0.1)
    assert res.table.effects[0].theta == pytest.approx(beta_sum, rel=0.15)


def test_delta_method_reduces_to_ols_se_when_p0():
    ds = ardl_panel(seed=5)
    res = estimate_ardl(ds, ARDLSpec("price", block=("driver",), p=0, m=30))
    i = res.fit.names.index("d_driver_lag0")
    assert res.table.phi == 1.0
    assert res.table.effects[0].se == pytest.approx(res.fit.se[i], abs=1e-10)
    assert res.table.effects[0].theta == pytest.approx(res.fit.coef[i],
                                                       abs=1e-14)


def test_reparameterization_scaling():
    ds = ardl_panel(seed=6)
    c = 5.0
    scaled = ds.with_series("driver", c * np.asarray(ds.values("driver")))
    spec = ARDLSpec("price", block=("driver",), p=1, m=30)
    a = estimate_ardl(ds, spec).table.effects[0]
    b = estimate_ardl(scaled, spec).table.effects[0]
    assert b.theta == pytest.approx(a.theta / c, rel=1e-10)
    assert b.theta / b.se == pytest.approx(a.theta / a.se, rel=1e-10)


def test_unit_root_guard():
    names = ("d_y_lag1", "d_x_lag0")
    coef = np.array([1.0, 0.3])
    vcov = np.eye(2) * 1e-4
    with pytest.raises(UnitRootError):
        long_run_from_coefficients(coef, vcov, names, "y", ("x",), 1, 30, 100)


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


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def _suite_panel():
    ds = climate_panel(n_regions=4, n_quarters=70, start="1990Q1", seed=12)
    for var, pol in (("temperature", ("hot", "cold")),
                     ("precipitation", ("wet", "dry"))):
        for m in (2, 3):
            ds = attach_anomaly_features(ds, var, m, polarities=pol,
                                         seasonal=False)
    return ds


def test_suite_single_cell():
    ds = _suite_panel()
    out = ardl_suite(ds, ["all_items"], [2], "temperature", "precipitation",
                     p=1)
    assert len(out.tables) == 1
    assert out.tables[0].outcome == "all_items"
    assert out.tables[0].m == 2
    assert [e.variable for e in out.tables[0].effects] == list(
        default_block("temperature", "precipitation", 2))


def test_suite_grid_ordering_and_block_order():
    ds = _suite_panel()
    out = ardl_suite(ds, ["food", "all_items"], [3, 2],
                     "temperature", "precipitation", p=1)
    assert [(t.outcome, t.m) for t in out.tables] == [
        ("food", 2), ("food", 3), ("all_items", 2), ("all_items", 3)]
    for t in out.tables:
        labels = [e.variable for e in t.effects]
        assert labels == list(default_block("temperature", "precipitation",
                                            t.m))


def test_suite_empty_outcomes():
    ds = _suite_panel()
    out = ardl_suite(ds, [], [2], "temperature", "precipitation")
    assert out.tables == ()
    assert out.failures == ()


def test_suite_records_cell_failures():
    ds = _suite_panel()
    out = ardl_suite(ds, ["all_items"], [2, 7], "temperature",
                     "precipitation", p=1)
    assert len(out.tables) == 1
    assert len(out.failures) == 1
    assert out.failures[0].m == 7  # anomalies for m=7 were never attached


def test_suite_six_outcomes_three_windows():
    ds = climate_panel(n_regions=3, n_quarters=50, start="1990Q1", seed=18)
    for var, pol in (("temperature", ("hot", "cold")),
                     ("precipitation", ("wet", "dry"))):
        for m in (1, 2, 3):
            ds = attach_anomaly_features(ds, var, m, polarities=pol,
                                         seasonal=False)
    outcomes = ["all_items", "food", "non_food", "services", "agriculture",
                "energy"]
    out = ardl_suite(ds, outcomes, [1, 2, 3], "temperature", "precipitation",
                     p=1)
    assert len(out.tables) == 18
    assert not out.failures
    assert [(t.outcome, t.m) for t in out.tables] == [
        (o, m) for o in outcomes for m in (1, 2, 3)]
    for t in out.tables:
        assert len(t.effects) == 4


def test_select_lag_bic_smoke():
    ds = ardl_panel(n_quarters=120, seed=8)
    p = select_lag_bic(ds, ARDLSpec("price", block=("driver",), p=1, m=30),
                       candidates=range(1, 5))
    assert p in range(1, 5)


def test_select_lag_bic_compares_candidates_on_one_sample():
    # BIC is comparable across lag orders only on one set of observations:
    # every p is fitted on the rows the largest candidate keeps (Ng & Perron
    # 2005). Here each p on its own, longer sample would pick p = 6.
    ds = ardl_panel(n_regions=3, n_quarters=24, seed=22)
    p_max = 8
    dy = np.diff(np.log(ds.values("price")), axis=1)
    dx = np.diff(ds.values("driver"), axis=1)
    R, S = dy.shape

    def brute_bic(p):
        rows, ys = [], []
        for i in range(R):
            for s in range(p_max, S):
                rows.append([dy[i, s - l] for l in range(1, p + 1)]
                            + [dx[i, s - l] for l in range(p + 1)]
                            + [float(j == i) for j in range(R)])
                ys.append(dy[i, s])
        X, y = np.array(rows), np.array(ys)
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        rss = float(np.sum((y - X @ coef) ** 2))
        return len(y) * np.log(rss / len(y)) + X.shape[1] * np.log(len(y))

    expected = min(range(1, p_max + 1), key=brute_bic)
    spec = ARDLSpec("price", block=("driver",), p=1, m=30)
    assert select_lag_bic(ds, spec, candidates=range(1, p_max + 1)) == expected
