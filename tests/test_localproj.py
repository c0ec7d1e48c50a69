"""Local projections: design construction and IRF estimation."""
import gc
import math
import re
import warnings

import numpy as np
import pytest

from climpanel import (
    HACSpec,
    ImpulseResponse,
    LPSpec,
    PanelDataset,
    QuarterIndex,
    estimate_irf,
    quarter_range,
)
from climpanel import localproj, regress
from climpanel.dataset import shift
from climpanel.errors import ClimPanelError, RankDeficiencyError, SampleError
from climpanel.localproj import _sample_groups, build_lp_design
from climpanel.regress import (
    _regressor_block,
    confidence_band,
    default_bandwidth,
    ols,
    with_driscoll_kraay,
)
from climpanel.simulate import lp_panel
from oracles import (
    dk_double_loop,
    lp_true_cumulative_response,
    peak_traced,
    with_series,
)


def test_h0_outcome_is_one_quarter_log_change():
    ds = lp_panel(n_regions=2, n_quarters=20, seed=1)
    spec = LPSpec(outcome="price", shocks=("shock",), lags=0)
    design = build_lp_design(ds, spec, horizon=0)
    log_p = np.log(ds.values("price"))
    # row order is region-major, time within region; t runs 1..T-1
    want = (log_p[:, 1:] - log_p[:, :-1]).ravel()
    np.testing.assert_allclose(design.y, want, atol=1e-15)


def test_constant_growth_outcome_column():
    T = 30
    time = quarter_range(QuarterIndex(2000, 1), QuarterIndex(2000, 1).offset(T - 1))
    g = 0.02
    price = 100.0 * (1 + g) ** np.arange(T)
    rng = np.random.default_rng(2)
    ds = PanelDataset(["a"], time, {
        "price": price[None, :], "shock": rng.normal(size=(1, T))})
    for h in (0, 2, 5):
        design = build_lp_design(ds, LPSpec("price", ("shock",), lags=0), h)
        np.testing.assert_allclose(
            design.y, (h + 1) * math.log(1 + g), rtol=1e-12)


def test_lags0_no_fe_is_bivariate():
    ds = lp_panel(n_regions=3, n_quarters=25, seed=3)
    spec = LPSpec("price", ("shock",), lags=0, fixed_effects=())
    design = build_lp_design(ds, spec, horizon=0)
    assert design.names == ("shock", "const")
    assert design.X.shape[1] == 2


def test_h0_equivalence_with_direct_regression():
    ds = lp_panel(seed=4)
    spec = LPSpec("price", ("shock",), horizons=(0,), lags=4)
    (res,) = estimate_irf(ds, spec)
    direct = ols(build_lp_design(ds, spec, 0))
    i = direct.names.index("shock")
    assert res.responses[0].estimate == pytest.approx(direct.coef[i],
                                                      abs=1e-12)


def test_sample_monotone_in_horizon():
    ds = lp_panel(seed=5)
    (res,) = estimate_irf(ds, LPSpec("price", ("shock",)))
    nobs = [r.nobs for r in res.responses]
    assert all(a >= b for a, b in zip(nobs, nobs[1:]))
    assert [r.horizon for r in res.responses] == list(range(9))


def test_shift_invariance_of_price_level():
    ds = lp_panel(n_regions=4, n_quarters=50, seed=6)
    scaled = with_series(ds, "price", 7.0 * np.asarray(ds.values("price")))
    spec = LPSpec("price", ("shock",), horizons=(0, 2, 4), lags=4)
    (a,) = estimate_irf(ds, spec)
    (b,) = estimate_irf(scaled, spec)
    for ra, rb in zip(a.responses, b.responses):
        assert ra.estimate == pytest.approx(rb.estimate, rel=1e-9)
        assert ra.se == pytest.approx(rb.se, rel=1e-9)


def test_shock_scaling_covariance():
    ds = lp_panel(n_regions=4, n_quarters=50, seed=7)
    c = 4.0
    scaled = with_series(ds, "shock", c * np.asarray(ds.values("shock")))
    spec = LPSpec("price", ("shock",), horizons=(0, 3), lags=4)
    (a,) = estimate_irf(ds, spec)
    (b,) = estimate_irf(scaled, spec)
    for ra, rb in zip(a.responses, b.responses):
        assert rb.estimate == pytest.approx(ra.estimate / c, rel=1e-12)


def test_zero_variance_shock_raises_rank_error():
    ds = lp_panel(n_regions=3, n_quarters=30, seed=8)
    ds = with_series(ds, "flat", np.zeros((3, 30)))
    (res,) = estimate_irf(ds, LPSpec("price", ("flat",), horizons=(0, 1),
                                     lags=2))
    assert not res.responses
    assert [f.horizon for f in res.failures] == [0, 1]
    assert all(f.message.startswith("RankDeficiencyError: ")
               for f in res.failures)


def test_unknown_fixed_effect_is_a_recorded_spec_error():
    spec = LPSpec("price", ("shock",), horizons=(0, 1),
                  fixed_effects=("county",))
    (res,) = estimate_irf(lp_panel(seed=1), spec)
    assert not res.responses
    assert [f.message for f in res.failures] == 2 * [
        "SpecError: fixed_effects may name region and time, each once, "
        "got ('county',)"]


def test_default_bandwidth_counts_periods_left_after_singleton_drop():
    # 4 regions x 103 quarters with lags=2 leave 100 periods at h = 0; in
    # one quarter only region 0 has the shock, so that period is a
    # singleton, dropped, and the rule sees T = 99: L = 3, not 4
    ds = lp_panel(n_regions=4, n_quarters=103, seed=12)
    shock = ds.values("shock").copy()
    shock[1:, 50] = np.nan
    ds = PanelDataset(ds.regions, ds.time,
                      {"price": ds.values("price"), "shock": shock})
    spec = LPSpec("price", ("shock",), horizons=(0,), lags=2)
    design = build_lp_design(ds, spec, 0)
    assert len(np.unique(design.time_codes)) == 100
    with pytest.warns(UserWarning, match="dropped 1 observation"):
        (res,) = estimate_irf(ds, spec)
        fit = ols(design)
    assert len(np.unique(fit.time_codes)) == 99
    assert (default_bandwidth(99), default_bandwidth(100)) == (3, 4)
    V = dk_double_loop(fit.within_x, fit.resid_vec, fit.time_codes, 3,
                       scale=fit.nobs / fit.dof)
    assert res.responses[0].se == pytest.approx(math.sqrt(V[0, 0]),
                                                rel=1e-10)


def test_lists_of_shocks_and_sample_estimate_as_tuples():
    # the horizons' shared regressors are cached under a hashable key
    ds = lp_panel(seed=1)
    want = estimate_irf(ds, LPSpec("price", ("shock",), horizons=(0, 1),
                                   sample=("2001Q1", "2010Q4")))
    got = estimate_irf(ds, LPSpec("price", ["shock"], horizons=(0, 1),
                                  sample=["2001Q1", "2010Q4"]))
    assert got == want and got[0].responses


def test_failing_horizon_reported_others_returned():
    ds = lp_panel(n_regions=3, n_quarters=16, seed=9)
    spec = LPSpec("price", ("shock",), horizons=tuple(range(13)), lags=2)
    with pytest.warns(UserWarning, match="singleton"):
        (res,) = estimate_irf(ds, spec)
    assert res.responses  # early horizons estimable
    assert res.failures   # impossible ones recorded
    failed = {f.horizon for f in res.failures}
    done = {r.horizon for r in res.responses}
    assert failed and done and failed.isdisjoint(done)


def test_band_contains_estimate():
    ds = lp_panel(seed=10)
    (res,) = estimate_irf(ds, LPSpec("price", ("shock",), horizons=(0, 1, 2)))
    for r in res.responses:
        assert r.band[0] <= r.estimate <= r.band[1]


def test_recovery_against_simulated_truth():
    # the DGP's true cumulative response is flat at beta; derive it by
    # counterfactual simulation rather than assuming it
    beta = 0.3
    for h in (0, 3, 7):
        assert lp_true_cumulative_response(beta, h) == pytest.approx(
            beta, abs=1e-12)
    reps = 40
    est = {0: [], 4: []}
    for seed in range(reps):
        ds = lp_panel(beta=beta, seed=300 + seed)
        (res,) = estimate_irf(ds, LPSpec("price", ("shock",), horizons=(0, 4)))
        for r in res.responses:
            est[r.horizon].append(r.estimate)
    for h, values in est.items():
        mean = float(np.mean(values))
        mc_se = float(np.std(values, ddof=1) / math.sqrt(reps))
        assert abs(mean - beta) < 3 * mc_se, f"h={h}"


# ---------------------------------------------------------------------------
# several shocks in one call: each must equal its own regression
# ---------------------------------------------------------------------------

def _per_shock(ds, spec, shock):
    """One regression per horizon with ols and with_driscoll_kraay: the
    ImpulseResponse, or the failure message, keyed by horizon."""
    one = spec.replace(shocks=(shock,))
    out = {}
    for h in spec.horizons:
        try:
            design = build_lp_design(ds, one, h)
            hac = spec.hac or HACSpec(None)
            if hac.bandwidth is None:
                periods = len(np.unique(design.time_codes))
                hac = HACSpec(max(default_bandwidth(periods), h),
                              hac.small_sample)
            fit = with_driscoll_kraay(ols(design), hac)
        except ClimPanelError as exc:
            out[h] = f"{type(exc).__name__}: {exc}"
            continue
        lo, hi = confidence_band(fit, spec.level)
        i = fit.names.index(shock)
        out[h] = ImpulseResponse(h, float(fit.coef[i]), float(fit.se[i]),
                                 (float(lo[i]), float(hi[i])), fit.nobs)
    return out


def _assert_batched_equals_per_shock(ds, spec, shocks):
    results = estimate_irf(ds, spec.replace(shocks=shocks))
    assert [r.shock for r in results] == list(shocks)
    for res in results:
        want = _per_shock(ds, spec, res.shock)
        assert {f.horizon: f.message for f in res.failures} == {
            h: w for h, w in want.items() if isinstance(w, str)}
        assert [r.horizon for r in res.responses] == [
            h for h, w in want.items() if not isinstance(w, str)]
        for got in res.responses:
            ref = want[got.horizon]
            assert got.nobs == ref.nobs
            scale = max(abs(ref.estimate), ref.se)
            for a, b in ((got.estimate, ref.estimate), (got.se, ref.se),
                         (got.band[0], ref.band[0]),
                         (got.band[1], ref.band[1])):
                assert abs(a - b) <= 1e-12 * scale, (res.shock, got.horizon)
    return results


def _multi_shock_panel(seed, n_regions=6, n_quarters=60):
    ds = lp_panel(n_regions=n_regions, n_quarters=n_quarters,
                  region_sd=0.5, time_sd=0.5, seed=seed)
    rng = np.random.default_rng(seed)
    shape = (n_regions, n_quarters)
    ds = with_series(ds, "s2", rng.normal(size=shape) + 3.0)
    return with_series(ds, "s3", 0.5 * np.asarray(ds.values("shock"))
                       + rng.normal(size=shape))


def test_batched_shocks_sharing_one_sample():
    ds = _multi_shock_panel(40)
    spec = LPSpec("price", ("shock",), horizons=(0, 1, 4), lags=3)
    assert _sample_groups(
        ds, spec.replace(shocks=("shock", "s2", "s3"))) == [[0, 1, 2]]
    _assert_batched_equals_per_shock(ds, spec, ("shock", "s2", "s3"))


def test_shock_with_extra_blanks_is_its_own_group():
    ds = _multi_shock_panel(41)
    s2 = np.array(ds.values("s2"))
    s2[np.random.default_rng(1).random(s2.shape) < 0.1] = np.nan
    ds = with_series(ds, "s2", s2)
    spec = LPSpec("price", ("shock",), horizons=(0, 2), lags=2)
    assert _sample_groups(
        ds, spec.replace(shocks=("shock", "s2", "s3"))) == [[0, 2], [1]]
    res = _assert_batched_equals_per_shock(ds, spec, ("shock", "s2", "s3"))
    assert res[1].responses[0].nobs < res[0].responses[0].nobs


def test_flat_shock_fails_alone_with_its_own_message():
    ds = with_series(_multi_shock_panel(42), "flat", np.zeros((6, 60)))
    spec = LPSpec("price", ("shock",), horizons=(0, 1), lags=2)
    res = _assert_batched_equals_per_shock(ds, spec, ("shock", "flat", "s2"))
    assert [len(r.responses) for r in res] == [2, 0, 2]
    assert res[1].failures[0].message == (
        "RankDeficiencyError: design matrix is rank deficient: "
        "'flat' has no variation after FE absorption")


@pytest.mark.parametrize("a, eps", [(100.0, 1e-7), (1e4, 1e-5)])
def test_shock_nearly_a_multiple_of_a_control_fails_as_ols_does(a, eps):
    # the shock partialled on the controls keeps 9.8e-10 of the largest
    # column norm, above the 1e-10 tolerance, yet its design's smallest
    # singular value is 9.8e-12 (9.8e-14) of the largest: the batched fit
    # must refuse what ols refuses
    ds = lp_panel(6, 60, seed=3)
    log_p = np.log(ds.values("price"))
    lag1 = shift(log_p - shift(log_p, 1), 1)
    noise = np.random.default_rng(4).normal(size=lag1.shape)
    ds = with_series(ds, "near", a * lag1 + eps * noise)
    spec = LPSpec("price", ("near",), horizons=(0,), lags=2)
    with pytest.raises(RankDeficiencyError) as err:
        ols(build_lp_design(ds, spec, 0))
    (res,) = estimate_irf(ds, spec)
    assert not res.responses
    assert [f.message for f in res.failures] == [
        f"RankDeficiencyError: {err.value}"]


@pytest.mark.parametrize("fixed_effects", [("time",), ()])
def test_fewer_rows_than_controls_fail_as_ols_does(fixed_effects):
    # one quarter of 3 regions against 4 lags (and a constant without FE):
    # QR of the controls has only 3 rows, and every shock records the
    # error its own ols gives instead of escaping estimate_irf
    ds = _multi_shock_panel(50, n_regions=3)
    spec = LPSpec("price", ("shock",), horizons=(0, 1), lags=4,
                  fixed_effects=fixed_effects, sample=("2005Q1", "2005Q1"))
    design = build_lp_design(ds, spec, 0)
    assert design.nobs < design.X.shape[1] - 1
    res = _assert_batched_equals_per_shock(ds, spec, ("shock", "s2", "s3"))
    assert not any(r.responses for r in res)
    assert all(f.message.startswith("RankDeficiencyError: ")
               for r in res for f in r.failures)


@pytest.mark.parametrize("fixed_effects", [("region", "time"), ()])
def test_batched_lags0_with_and_without_fixed_effects(fixed_effects):
    ds = _multi_shock_panel(43)
    spec = LPSpec("price", ("shock",), horizons=(0, 3), lags=0,
                  fixed_effects=fixed_effects)
    _assert_batched_equals_per_shock(ds, spec, ("shock", "s2", "s3"))


@pytest.mark.parametrize("small_sample", [True, False])
def test_batched_explicit_bandwidth(small_sample):
    ds = _multi_shock_panel(44)
    spec = LPSpec("price", ("shock",), horizons=(0, 2), lags=2,
                  hac=HACSpec(5, small_sample))
    _assert_batched_equals_per_shock(ds, spec, ("shock", "s2", "s3"))


def test_batched_sample_window_and_unknown_shock():
    ds = _multi_shock_panel(45)
    spec = LPSpec("price", ("shock",), horizons=(0, 1), lags=2,
                  sample=("2005Q1", "2012Q4"))
    res = _assert_batched_equals_per_shock(
        ds, spec, ("shock", "nope", "s2", "s3"))
    assert res[0].responses[0].nobs < estimate_irf(
        ds, spec.replace(sample=None))[0].responses[0].nobs
    assert res[1].failures[0].message.startswith(
        "VariableLookupError: unknown variable 'nope'")


def test_blank_bandwidth_keeps_small_sample_flag():
    ds = _multi_shock_panel(46)
    spec = LPSpec("price", ("shock",), horizons=(0, 3), lags=2,
                  hac=HACSpec(None, small_sample=False))
    (res,) = _assert_batched_equals_per_shock(ds, spec, ("shock",))
    (default,) = estimate_irf(ds, spec.replace(hac=None))
    for a, b in zip(res.responses, default.responses):
        assert a.estimate == b.estimate
        assert a.se < b.se


def test_failed_horizons_leave_no_live_exception():
    # a failure is kept as its message: an exception kept in a list its own
    # traceback reaches would hold the design blocks until gc ran
    ds = with_series(lp_panel(n_regions=3, n_quarters=30, seed=8), "flat",
                     np.zeros((3, 30)))
    spec = LPSpec("price", ("flat",), horizons=(0, 1, 2), lags=2)

    def live_errors():
        return sum(isinstance(o, ClimPanelError) for o in gc.get_objects())

    gc.collect()
    before = live_errors()
    gc.disable()
    try:
        (res,) = estimate_irf(ds, spec)
        after = live_errors()
    finally:
        gc.enable()
    assert [f.horizon for f in res.failures] == [0, 1, 2]
    assert after == before


def test_sample_groups_are_fitted_one_after_another(monkeypatch):
    # the horizons of a group share one cached regressor block
    ds = _multi_shock_panel(47)
    s2 = np.array(ds.values("s2"))
    s2[0, 30] = np.nan
    ds = with_series(ds, "s2", s2)
    spec = LPSpec("price", ("shock", "s2", "s3"), horizons=(0, 1, 2), lags=2)
    assert _sample_groups(ds, spec) == [[0, 2], [1]]
    built = []

    def counting_block(entries, time, window):
        built.append(tuple(name for name, _, _ in entries))
        return _regressor_block(entries, time, window)

    monkeypatch.setattr(localproj, "_regressor_block", counting_block)
    localproj._regressors.cache_clear()
    res = estimate_irf(ds, spec)
    lags = ("dlog_price_lag1", "dlog_price_lag2")
    assert built == [("shock", "s3", *lags), ("s2", *lags)]
    assert [len(r.responses) for r in res] == [3, 3, 3]


def test_refit_reuses_its_group_regressor_block(monkeypatch):
    # a shock the batched fit cannot take is refitted on its columns of the
    # group's absorbed design, so the group's cached block serves every
    # horizon and each (group, horizon) is absorbed once
    ds = with_series(_multi_shock_panel(48), "flat", np.zeros((6, 60)))
    spec = LPSpec("price", ("shock", "flat", "s2"), horizons=tuple(range(9)),
                  lags=2)
    absorbed = []
    absorb = regress.within_transform

    def counting_absorb(design):
        absorbed.append(design)
        return absorb(design)

    monkeypatch.setattr(regress, "within_transform", counting_absorb)
    localproj._regressors.cache_clear()
    res = estimate_irf(ds, spec)
    info = localproj._regressors.cache_info()
    assert (info.hits, info.misses) == (8, 1)
    assert len(absorbed) == len(spec.horizons)
    assert [len(r.responses) for r in res] == [9, 0, 9]
    _assert_batched_equals_per_shock(ds, spec, spec.shocks)


@pytest.mark.parametrize("change", [
    {"outcome": "nope"},                         # unknown outcome
    {"outcome": "shock"},                        # non-positive outcome
    {"lags": 59},                                # lag order T - 1
    {"sample": ("1990Q1", "1995Q4")},            # empty window
    {"fixed_effects": ("county",)},              # unknown fixed effect
    {"sample": ("2005Q1", "2005Q1")},            # only singleton groups
])
def test_group_that_cannot_be_built_fails_each_shock_alike(monkeypatch,
                                                           change):
    # the group's design is built once per horizon, and each shock gets
    # the message its own build gives
    ds = _multi_shock_panel(49)
    spec = LPSpec("price", ("shock",), horizons=(0, 2), lags=2).replace(
        **change)
    built = []

    def counting_build(ds, spec, horizon):
        built.append(horizon)
        return build_lp_design(ds, spec, horizon)

    monkeypatch.setattr(localproj, "build_lp_design", counting_build)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the singleton drop warns
        res = _assert_batched_equals_per_shock(ds, spec,
                                               ("shock", "s2", "s3"))
    assert not any(r.responses for r in res)
    assert all(len(r.failures) == 2 for r in res)
    assert built == [0, 2]


def test_lag_order_past_the_panel_builds_no_lag_column(monkeypatch):
    ds = lp_panel(n_regions=3, n_quarters=20, seed=2)
    peaks = []
    monkeypatch.setattr(localproj, "_regressor_block",
                        peak_traced(_regressor_block, peaks))
    localproj._regressors.cache_clear()
    spec = LPSpec("price", ("shock",), horizons=(0, 1), lags=21)
    with pytest.raises(SampleError, match=r"^no usable observations: all 60 "
                       r"rows dropped listwise$"):
        build_lp_design(ds, spec, 0)
    (res,) = estimate_irf(ds, spec.replace(sample=("2003Q1", "2004Q4")))
    assert [f.message for f in res.failures] == 2 * [
        "SampleError: no usable observations: all 24 rows dropped listwise"]
    # the outcome, the shocks and the window are still checked first
    for bad, message in (
            (spec.replace(outcome="shock"),
             "log requires strictly positive values: 'shock'"),
            (spec.replace(shocks=("nope",)), "unknown variable 'nope'"),
            (spec.replace(sample=("1990Q1", "1995Q4")),
             "sample window 1990Q1..1995Q4 is empty")):
        with pytest.raises(ClimPanelError, match=re.escape(message)):
            build_lp_design(ds, bad, 0)
    # one lag short of the panel builds no lag column either: the first
    # difference takes a quarter, so no row survives
    with pytest.raises(SampleError, match="all 60 rows dropped listwise"):
        build_lp_design(ds, spec.replace(lags=19), 0)
    # only the window and the lag-order calls (one per horizon) reach the
    # block builder, and each raised holding less than its smallest block
    # would: 24 cells by the shock and 19 lag columns of lags = 19
    assert len(peaks) == 5
    assert max(peaks) < 8 * 24 * 20
