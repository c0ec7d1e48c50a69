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
    build_ardl_design,
    estimate_ardl,
    quarter_range,
    QuarterIndex,
    with_driscoll_kraay,
)
from climpanel import ardl
from climpanel.ardl import long_run_from_coefficients
from climpanel.dataset import shift
from climpanel.errors import (
    ClimPanelError,
    RankDeficiencyError,
    SampleError,
    SpecError,
    UnitRootError,
)
from climpanel.simulate import ardl_panel
from oracles import ardl_steady_state, with_series


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
    calls = []

    def counting_shift(mat, k):
        calls.append(k)
        return shift(mat, k)

    monkeypatch.setattr(ardl, "shift", counting_shift)
    spec = ARDLSpec("price", block=("b1", "b2"), p=21)
    with pytest.raises(SampleError, match=r"^no usable observations: all 60 "
                       r"rows dropped listwise$"):
        build_ardl_design(ds, spec)
    with pytest.raises(SampleError, match="all 24 rows dropped listwise"):
        build_ardl_design(ds, spec.replace(sample=("2003Q1", "2004Q4")))
    assert calls == []
    # the outcome, every block series and the window are still checked first
    for bad, message in (
            (spec.replace(outcome="b1"),
             "log requires strictly positive values: 'b1'"),
            (spec.replace(block=("b1", "nope")), "unknown variable 'nope'"),
            (spec.replace(sample=("1990Q1", "1995Q4")),
             "sample window 1990Q1..1995Q4 is empty")):
        with pytest.raises(ClimPanelError, match=re.escape(message)):
            build_ardl_design(ds, bad)
    # one lag short of the panel still builds its columns and fails alike
    with pytest.raises(SampleError, match="all 60 rows dropped listwise"):
        build_ardl_design(ds, spec.replace(p=19))
    assert calls


def test_unknown_fixed_effect_is_a_spec_error():
    spec = ARDLSpec("price", ("driver",), p=1, fixed_effects=("county",))
    with pytest.raises(SpecError, match="may name region and time"):
        estimate_ardl(ardl_panel(seed=1), spec)


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
    scaled = with_series(ds, "driver", c * np.asarray(ds.values("driver")))
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
