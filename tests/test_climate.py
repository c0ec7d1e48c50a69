"""Norms, anomalies, sign splits and seasonal shocks."""
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from climpanel import (
    PanelDataset,
    QuarterIndex,
    anomaly,
    attach_anomaly_features,
    historical_norm,
    quarter_range,
    seasonal_shock,
    sign_split,
)
from climpanel.errors import BurnInError
from oracles import brute_anomaly, brute_norm, shift_sum_norm


def quarters(n, start=QuarterIndex(1990, 1)):
    return quarter_range(start, start.offset(n - 1))


# ---------------------------------------------------------------------------
# historical_norm
# ---------------------------------------------------------------------------

def test_norm_constant_series():
    levels = np.full((2, 40), 7.5)
    norm = historical_norm(levels, 3)
    assert np.all(np.isnan(norm[:, :12]))
    assert np.all(norm[:, 12:] == 7.5)


def test_norm_m2_hand_value():
    # same quarter two years back holds 10, one year back holds 14
    levels = np.zeros((1, 12))
    levels[0, 1] = 10.0
    levels[0, 5] = 14.0
    norm = historical_norm(levels, 2)
    assert norm[0, 9] == 12.0


def test_norm_m1_is_last_year_same_quarter():
    levels = np.arange(24.0)[None, :]
    norm = historical_norm(levels, 1)
    np.testing.assert_array_equal(norm[0, 4:], levels[0, :-4])
    assert np.all(np.isnan(norm[0, :4]))


@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("mode", ["same-quarter", "rolling"])
def test_norm_and_anomaly_match_bruteforce(m, mode):
    rng = np.random.default_rng(100 + m)
    levels = rng.normal(15.0, 4.0, (2, 50))
    values, norm = anomaly(levels, m, mode=mode)
    for i in range(2):
        exp_vals, exp_norm = brute_anomaly(list(levels[i]), m, mode=mode)
        np.testing.assert_allclose(norm[i], exp_norm, atol=1e-12)
        np.testing.assert_allclose(values[i], exp_vals, atol=1e-12)


@pytest.mark.parametrize("mode", ["same-quarter", "rolling"])
@pytest.mark.parametrize("m", [1, 2, 4, 5, 6, 40])
def test_norm_bits_match_the_shift_sum(m, mode):
    # T = 20, so m = 4, 5, 6 are below, at and above T/4
    rng = np.random.default_rng(m)
    levels = rng.normal(size=(3, 20))
    levels[0, ::3] = np.nan
    levels[1, :] = -0.0
    levels[2, 7] = 0.0
    got = historical_norm(levels, m, mode)
    want = shift_sum_norm(levels, m, mode)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_norm_window_far_past_the_panel_is_a_quick_burn_in_error():
    rng = np.random.default_rng(3)
    ds = PanelDataset(["a", "b"], quarters(40),
                      {"temperature": rng.normal(size=(2, 40))})
    for mode in ("same-quarter", "rolling"):
        t0 = time.perf_counter()
        with pytest.raises(BurnInError):
            attach_anomaly_features(ds, "temperature", m=10**7, mode=mode)
        assert time.perf_counter() - t0 < 2.0


def test_norm_trailing_causality():
    rng = np.random.default_rng(7)
    levels = rng.normal(size=(1, 60))
    bumped = levels.copy()
    t0 = 30
    bumped[0, t0:] += 100.0
    a = historical_norm(levels, 4)
    b = historical_norm(bumped, 4)
    np.testing.assert_array_equal(a[0, :t0 + 1], b[0, :t0 + 1])


# ---------------------------------------------------------------------------
# anomaly
# ---------------------------------------------------------------------------

def test_anomaly_constant_is_zero():
    levels = np.full((1, 30), 3.25)
    values, _ = anomaly(levels, 2)
    defined = np.isfinite(values)
    assert defined.any()
    assert np.all(values[defined] == 0.0)


def test_anomaly_m1_scale_is_one():
    rng = np.random.default_rng(3)
    levels = rng.normal(size=(1, 20))
    values, _ = anomaly(levels, 1)
    np.testing.assert_allclose(
        values[0, 4:], levels[0, 4:] - levels[0, :-4], atol=1e-15)


def test_anomaly_m30_unit_gap():
    # constant series with a one-off +1 impulse: level - norm = 1 there
    T = 4 * 31
    levels = np.full((1, T), 20.0)
    t0 = 121
    levels[0, t0] = 21.0
    values, _ = anomaly(levels, 30)
    got = values[0, t0]
    assert got == pytest.approx(2.0 / 31.0, rel=1e-15)
    assert abs(got - 0.064516) < 1e-6


def test_anomaly_linearity_in_scaling_and_shift():
    rng = np.random.default_rng(11)
    levels = rng.normal(10.0, 2.0, (2, 40))
    base, _ = anomaly(levels, 3)
    scaled, _ = anomaly(2.5 * levels + 4.0, 3)
    defined = np.isfinite(base)
    np.testing.assert_allclose(scaled[defined], 2.5 * base[defined],
                               rtol=1e-12, atol=1e-12)


def test_anomaly_window_scale_identity_on_impulse():
    # constant + single impulse: trailing means coincide across m, so the
    # anomaly ratio at the impulse is exactly (m' + 1) / (m + 1)
    m, m2 = 2, 5
    T = 60
    levels = np.full((1, T), 5.0)
    t0 = 40
    levels[0, t0] = 8.0
    a = anomaly(levels, m)[0][0, t0]
    b = anomaly(levels, m2)[0][0, t0]
    assert a / b == pytest.approx((m2 + 1) / (m + 1), rel=1e-14)


def test_norm_params_validation():
    with pytest.raises(ValueError, match="m must be >= 1, got 0"):
        anomaly(np.zeros((1, 8)), 0)


# ---------------------------------------------------------------------------
# sign_split
# ---------------------------------------------------------------------------

def test_sign_split_example():
    positive, negative = sign_split(np.array([[-1.0, 0.0, 2.0]]))
    np.testing.assert_array_equal(positive, [[0.0, 0.0, 2.0]])
    np.testing.assert_array_equal(negative, [[-1.0, 0.0, 0.0]])


def test_sign_split_all_positive():
    _, negative = sign_split(np.array([[1.0, 2.0, 3.0]]))
    assert np.all(negative == 0.0)


@settings(max_examples=200)
@given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=8),
                  elements=st.floats(allow_nan=True, width=64)))
def test_sign_split_partition_identity(values):
    positive, negative = sign_split(values)
    np.testing.assert_array_equal(positive + negative, values)
    finite = np.isfinite(values)
    assert np.all(positive[finite] >= 0.0)
    assert np.all(negative[finite] <= 0.0)


# ---------------------------------------------------------------------------
# seasonal shocks
# ---------------------------------------------------------------------------

def _small_anomaly(seed=0, T=24):
    rng = np.random.default_rng(seed)
    levels = rng.normal(0.0, 1.0, (2, T))
    return anomaly(levels, 1)[0], quarters(T)


def test_hot_summer_on_negative_series_is_zero():
    a, time = _small_anomaly()
    forced = np.where(np.isfinite(a), -np.abs(a) - 0.5, np.nan)
    shock = seasonal_shock(forced, time, "summer", "hot")
    defined = np.isfinite(shock)
    assert np.all(shock[defined] == 0.0)


def test_cold_winter_only_q1():
    a, time = _small_anomaly(seed=5)
    shock = seasonal_shock(a, time, "winter", "cold")
    for t, q in enumerate(time):
        col = shock[:, t]
        finite = np.isfinite(col)
        if q.quarter != 1:
            assert np.all(col[finite] == 0.0)
        assert np.all(col[finite] <= 0.0)
    # some winter cell should be active for this draw
    winter_cols = [t for t, q in enumerate(time) if q.quarter == 1]
    assert np.nansum(np.abs(shock[:, winter_cols])) > 0


def test_season_partition_recovers_anomaly():
    a, time = _small_anomaly(seed=9)
    total = np.zeros_like(a)
    for season in ("winter", "spring", "summer", "autumn"):
        for polarity in ("hot", "cold"):
            total += np.nan_to_num(
                seasonal_shock(a, time, season, polarity))
    defined = np.isfinite(a)
    np.testing.assert_array_equal(total[defined], a[defined])


def test_seasonal_interaction_form():
    a, time = _small_anomaly(seed=13)
    raw = seasonal_shock(a, time, "spring", "hot", sign_conditioned=False)
    for t, q in enumerate(time):
        col = raw[:, t]
        finite = np.isfinite(col)
        if q.quarter == 2:
            np.testing.assert_array_equal(col[finite], a[:, t][finite])
        else:
            assert np.all(col[finite] == 0.0)


# ---------------------------------------------------------------------------
# dataset integration
# ---------------------------------------------------------------------------

def test_attach_anomaly_features_names():
    rng = np.random.default_rng(21)
    time = quarters(20)
    ds = PanelDataset(["a", "b"], time,
                      {"temperature": rng.normal(20, 5, (2, 20))},
                      {"temperature": "degC"})
    out = attach_anomaly_features(ds, "temperature", m=2)
    for name in ("temperature_norm_m2", "temperature_anom_m2",
                 "temperature_anom_m2_pos", "temperature_anom_m2_neg",
                 "temperature_winter_cold_m2", "temperature_summer_hot_m2"):
        assert name in out.variables
    vals = out.values("temperature_anom_m2")
    pos = out.values("temperature_anom_m2_pos")
    neg = out.values("temperature_anom_m2_neg")
    defined = np.isfinite(vals)
    np.testing.assert_array_equal((pos + neg)[defined], vals[defined])


def test_attach_burn_in_error():
    rng = np.random.default_rng(2)
    time = quarters(10)
    ds = PanelDataset(["a"], time, {"temperature": rng.normal(size=(1, 10))})
    with pytest.raises(BurnInError):
        attach_anomaly_features(ds, "temperature", m=30)
