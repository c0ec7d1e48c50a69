"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The final criterion needs user-supplied real data (see its docstring)
and is skipped otherwise.
"""
import math
import os
import time

import numpy as np
import pytest
from scipy import stats

from climpanel import (
    ARDLSpec,
    HACSpec,
    LPSpec,
    PanelSchema,
    annualize,
    attach_anomaly_features,
    estimate_ardl,
    estimate_irf,
    load_panel,
    merge_panels,
)
from climpanel.cli import main
from climpanel.climate import anomaly, sign_split
from climpanel.dataset import subset
from climpanel.regress import ols, vcov_driscoll_kraay
from climpanel.simulate import ardl_panel, lp_panel
from climpanel.specs import QuarterIndex, quarter_range
from oracles import (
    ardl_steady_state,
    brute_anomaly,
    design_from_matrices,
    dummy_ols_slopes,
    fe_panel,
    lp_true_cumulative_response,
    newey_west_double_loop,
    panel_design,
    write_paper_claims_csvs,
)

Z90 = float(stats.norm.ppf(0.95))


def _verdict(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def test_anomaly_engine_bruteforce_1e12():
    """Hand-built 1-region 35-year quarterly series vs spreadsheet-style
    recomputation, 1e-12; exact sign-split recomposition; under 1 second."""
    t0 = time.perf_counter()
    T = 35 * 4
    t = np.arange(T)
    level = (18.0 + 6.0 * np.sin(2 * math.pi * (t % 4) / 4.0)
             + 0.01 * t
             + np.sin(0.7 * t) * 1.3)
    m = 30
    values, norm = anomaly(level[None, :], m)
    exp_vals, exp_norm = brute_anomaly(list(level), m)
    defined = np.isfinite(values[0])
    assert defined.sum() == T - m * 4
    err_norm = np.nanmax(np.abs(norm[0] - np.asarray(exp_norm)))
    err_vals = np.nanmax(np.abs(values[0] - np.asarray(exp_vals)))
    positive, negative = sign_split(values)
    recomposed = positive + negative
    exact = np.array_equal(recomposed[0][defined], values[0][defined])
    elapsed = time.perf_counter() - t0
    ok = err_norm <= 1e-12 and err_vals <= 1e-12 and exact and elapsed < 1.0
    _verdict("anomaly-engine", ok,
             f"(norm err {err_norm:.2e}, value err {err_vals:.2e}, "
             f"sign-split exact {exact}, {elapsed:.2f}s)")


def test_annualization_arithmetic():
    """annualize(0.0273, 30) within [0.00170, 0.00180] and exact to 1e-15."""
    got = annualize(0.0273, 30)
    in_range = 0.00170 <= got <= 0.00180
    exact = abs(got - 0.0273 * 2 / 31) <= 1e-15
    _verdict("annualization", in_range and exact,
             f"(value {got:.7f}, in [0.00170, 0.00180] {in_range}, "
             f"exact {exact})")


def test_lsdv_equivalence_200_panels():
    """Within-FE slopes equal dummy-variable OLS slopes to 1e-8 relative on
    200 seeded random panels up to 10 regions x 60 quarters; under 30 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for rep in range(200):
        R = int(rng.integers(3, 11))
        T = int(rng.integers(8, 61))
        fe = [("region",), ("time",), ("region", "time")][rep % 3]
        ds = fe_panel(n_regions=R, n_quarters=T, betas=(1.2, -0.4),
                      seed=int(rng.integers(0, 2**31)))
        design = panel_design(ds, "y", ("x1", "x2"), fixed_effects=fe)
        fit = ols(design)
        oracle = dummy_ols_slopes(design.y, design.X, design.region_codes,
                                  design.time_codes, fe)
        rel = float(np.max(np.abs(fit.coef - oracle)
                           / np.maximum(np.abs(oracle), 1e-12)))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    _verdict("lsdv-equivalence", ok,
             f"(200 panels, worst rel diff {worst:.2e}, {elapsed:.1f}s)")


def test_dk_degenerate_newey_west_oracle():
    """N=1 Driscoll-Kraay equals the brute-force Newey-West double loop to
    1e-10 relative for L in {0, 1, 4}, 100 seeded series; under 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240502)
    time_grid = quarter_range(QuarterIndex(2000, 1), QuarterIndex(2019, 4))
    worst = 0.0
    for rep in range(100):
        n = int(rng.integers(25, 81))
        x = rng.normal(size=n)
        e = rng.normal(size=n)
        y = 0.4 * x + e + 0.5 * np.concatenate([[0.0], e[:-1]])
        design = design_from_matrices(
            y[None, :], [("x", x[None, :])], time_grid[:n])
        fit = ols(design)
        X = fit.within_x
        for L in (0, 1, 4):
            got = vcov_driscoll_kraay(fit, HACSpec(L, small_sample=True))
            want = newey_west_double_loop(X, fit.resid_vec, L,
                                          small_sample=True)
            rel = float(np.max(np.abs(got - want) / np.abs(want).max()))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _verdict("dk-newey-west-oracle", ok,
             f"(100 series x L in 0,1,4; worst rel diff {worst:.2e}, "
             f"{elapsed:.1f}s)")


def test_lp_recovery_and_coverage():
    """dlog P = 0.3 X + e on 7x88, 500 reps: h=0 mean within 3 MC SEs of the
    simulated truth, and 90% DK bands cover it in >= 85% of reps at every
    h <= 8; under 5 minutes."""
    t0 = time.perf_counter()
    beta = 0.3
    truth = {h: lp_true_cumulative_response(beta, h) for h in range(9)}
    truth_flat = all(abs(truth[h] - beta) < 1e-12 for h in truth)
    reps = 500
    cover = np.zeros(9)
    h0 = []
    for seed in range(reps):
        ds = lp_panel(beta=beta, seed=1_000_000 + seed)
        (res,) = estimate_irf(ds, LPSpec("price", ("shock",)))
        for r in res.responses:
            cover[r.horizon] += (r.band[0] <= truth[r.horizon] <= r.band[1])
            if r.horizon == 0:
                h0.append(r.estimate)
    cover /= reps
    mean = float(np.mean(h0))
    mc_se = float(np.std(h0, ddof=1) / math.sqrt(reps))
    elapsed = time.perf_counter() - t0
    ok = (truth_flat and abs(mean - beta) <= 3 * mc_se
          and cover.min() >= 0.85 and elapsed < 300.0)
    _verdict("lp-recovery", ok,
             f"(h0 mean {mean:.4f} vs {beta}, 3 MC SE {3 * mc_se:.4f}; "
             f"coverage min {cover.min():.3f} by h "
             f"{np.round(cover, 3).tolist()}; {elapsed:.0f}s)")


def test_ardl_long_run_recovery():
    """phi1=0.5, beta=(0.2, 0.1) => theta=0.6 on 7x88, 500 reps: mean theta
    within 3 MC SEs; identity theta*phi = sum(beta) to 1e-12 in every fit;
    under 5 minutes."""
    t0 = time.perf_counter()
    truth = ardl_steady_state((0.5,), (0.2, 0.1))
    reps = 500
    thetas = []
    worst_identity = 0.0
    for seed in range(reps):
        ds = ardl_panel(phi=(0.5,), beta=(0.2, 0.1), seed=2_000_000 + seed)
        res = estimate_ardl(ds, ARDLSpec("price", block=("driver",), p=1,
                                         m=30))
        th = res.table.effects[0].theta
        thetas.append(th)
        beta_sum = sum(
            res.fit.coef[res.fit.names.index(f"d_driver_lag{l}")]
            for l in (0, 1))
        worst_identity = max(worst_identity,
                             abs(th * res.table.phi - beta_sum))
    mean = float(np.mean(thetas))
    mc_se = float(np.std(thetas, ddof=1) / math.sqrt(reps))
    elapsed = time.perf_counter() - t0
    ok = (abs(truth - 0.6) < 1e-12 and abs(mean - truth) <= 3 * mc_se
          and worst_identity <= 1e-12 and elapsed < 300.0)
    _verdict("ardl-recovery", ok,
             f"(mean theta {mean:.4f} vs {truth:.4f}, 3 MC SE "
             f"{3 * mc_se:.4f}; worst identity {worst_identity:.2e}; "
             f"{elapsed:.0f}s)")


def test_null_effect_size_calibration():
    """Zero-beta LP DGP: rejection rate of the 90% band at h=0 lies in
    10% +/- 3pp over 1,000 replications."""
    t0 = time.perf_counter()
    reps = 1000
    rejections = 0
    for seed in range(reps):
        ds = lp_panel(beta=0.0, seed=3_000_000 + seed)
        (res,) = estimate_irf(ds, LPSpec("price", ("shock",), horizons=(0,)))
        r = res.responses[0]
        rejections += not (r.band[0] <= 0.0 <= r.band[1])
    rate = rejections / reps
    elapsed = time.perf_counter() - t0
    ok = 0.07 <= rate <= 0.13
    _verdict("null-calibration", ok,
             f"(rejection rate {rate:.3f} over {reps} reps, {elapsed:.0f}s)")


PAPER_CLAIMS_CONFIG = """
[input]
climate = climate.csv
prices = prices.csv

[anomaly]
m = 30
seasonal = false

[lp]
outcomes = all_items

[ardl]
outcomes = all_items
m = 30
"""


def _csv_rows(path):
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if not line.startswith("#")]
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


def test_paper_claims_end_to_end(tmp_path):
    """anomaly -> lp -> ardl through the CLI on 32 x 252 CSVs in which price
    growth loads on the change of the positive precipitation anomaly
    (beta = 0.003, phi = 0.5, so theta = 0.006) and on temperature not at
    all; three seeds, under 5 seconds. For each seed the P+ theta lies
    within 3 of its standard errors of the truth and the h = 0 band of the
    P+ shock covers beta; the T+ and T- thetas reject zero at 5% in at most
    1 of their 6 tests."""
    t0 = time.perf_counter()
    beta, phi = 0.003, 0.5
    theta = beta / (1.0 - phi)
    rejections = 0
    details = []
    for seed in (0, 1, 2):
        root = tmp_path / f"seed{seed}"
        root.mkdir()
        anom = write_paper_claims_csvs(root, 4_000_000 + seed, beta, phi)
        (root / "run.ini").write_text(PAPER_CLAIMS_CONFIG, encoding="utf-8")
        for command in ("anomaly", "lp", "ardl"):
            assert main([command, "--config", str(root / "run.ini")]) == 0
        out = root / "out"
        # the anomaly the program writes is the generator's own
        written = load_panel(out / "anomaly_precipitation_m30.csv")
        np.testing.assert_allclose(
            written.values("precipitation_anom_m30"), anom, rtol=1e-12,
            atol=1e-12)
        effects = {row["variable"]: row
                   for row in _csv_rows(out / "longrun_table.csv")}
        p_pos = effects["precipitation_pos"]
        est, se = float(p_pos["theta"]), float(p_pos["se"])
        details.append(f"theta_P+ {est:.5f} se {se:.5f}")
        assert abs(est - theta) <= 3.0 * se, details[-1]
        for name in ("temperature_pos", "temperature_neg"):
            t_stat = float(effects[name]["theta"]) / float(effects[name]["se"])
            rejections += abs(t_stat) > 1.959963984540054
        (h0,) = [row for row in _csv_rows(
            out / "irf_precipitation_anom_m30_pos__all_items.csv")
            if row["horizon"] == "0"]
        lo, hi = float(h0["lo"]), float(h0["hi"])
        details.append(f"h0 band [{lo:.5f}, {hi:.5f}]")
        assert lo <= beta <= hi, details[-1]
    elapsed = time.perf_counter() - t0
    ok = rejections <= 1 and elapsed < 5.0
    _verdict("paper-claims-end-to-end", ok,
             f"({'; '.join(details)}; temperature rejections {rejections}/6, "
             f"{elapsed:.1f}s)")


def test_real_data_reproduction():
    """Optional: reproduce the all-items m=30 long-run precipitation effect
    on user-supplied data.

    Set CLIMPANEL_REAL_DATA to a directory with climate.csv (region, year,
    quarter, temperature, precipitation) and prices.csv (region, year,
    quarter, all_items plus any other components), both with enough history
    before 2002Q1 for 30-year norms. Checks theta for positive precipitation
    deviations within +/-20% of 0.0273 with matching sign and 5%
    significance, and phi within +/-20% of 0.2397.
    """
    root = os.environ.get("CLIMPANEL_REAL_DATA")
    if not root:
        pytest.skip("set CLIMPANEL_REAL_DATA to run the reproduction check")
    schema = PanelSchema()
    climate = load_panel(os.path.join(root, "climate.csv"), schema)
    prices = load_panel(os.path.join(root, "prices.csv"), schema)
    ds = merge_panels(prices, climate)
    for var, pol in (("temperature", ("hot", "cold")),
                     ("precipitation", ("wet", "dry"))):
        ds = attach_anomaly_features(ds, var, 30, polarities=pol,
                                     seasonal=False)
    res = estimate_ardl(
        subset(ds, start="1994Q1", end="2023Q4"),
        ARDLSpec("all_items",
                 block=("temperature_anom_m30_pos", "temperature_anom_m30_neg",
                        "precipitation_anom_m30_pos",
                        "precipitation_anom_m30_neg"),
                 p=4, m=30, sample=("2002Q1", "2023Q4")),
    )
    p_pos = res.table.effects[2]
    theta_ok = abs(p_pos.theta - 0.0273) <= 0.2 * 0.0273
    sign_ok = p_pos.theta > 0
    sig_ok = abs(p_pos.theta / p_pos.se) >= float(stats.norm.ppf(0.975))
    phi_ok = abs(res.table.phi - 0.2397) <= 0.2 * 0.2397
    ok = theta_ok and sign_ok and sig_ok and phi_ok
    _verdict("real-data-reproduction", ok,
             f"(theta_P+ {p_pos.theta:.4f} se {p_pos.se:.4f}, "
             f"phi {res.table.phi:.4f})")
