"""Historical norms, anomalies, sign splits and seasonal shock variants.

The anomaly of a climate level series x at quarter t is

    a[t] = (2 / (m + 1)) * (x[t] - norm[t])

where norm[t] is the trailing m-year moving average of x, using only
observations strictly before t. By default the norm for quarter q of year y
averages quarter q of the preceding m years (same-quarter norm), so the
anomaly reads as a deviation from the historical average for that time of
year; a calendar-blind trailing mean over the last 4*m quarters is
available as an alternative.
"""
from __future__ import annotations

import numpy as np

from .dataset import PanelDataset, _join
from .errors import BurnInError
from .specs import NORM_MODES, SEASONS, check_choice, check_count, derived_names

# hot/wet keep the positive part of the anomaly, cold/dry the negative part.
POLARITY_SIGN = {"hot": 1, "wet": 1, "cold": -1, "dry": -1}


def historical_norm(
    levels: np.ndarray, m: int, mode: str = "same-quarter"
) -> np.ndarray:
    """Trailing m-year moving average, NaN where history is insufficient.

    same-quarter: norm[:, t] averages levels[:, t - 4*l], l = 1..m.
    rolling: norm[:, t] averages the previous 4*m observations.

    The window ends strictly before t, so norm[:, t] never depends on
    levels[:, s] with s >= t.
    """
    check_count("m", m, 1)
    check_choice("mode", mode, NORM_MODES)
    levels = np.atleast_2d(np.asarray(levels, dtype=float))
    step = 4 if mode == "same-quarter" else 1
    offsets = range(step, 4 * m + 1, step)
    # cells before the burn-in, the longest offset, stay NaN and cost nothing
    T, burn_in = levels.shape[1], offsets[-1]
    norm = np.full(levels.shape, np.nan)
    if burn_in < T:
        norm[:, burn_in:] = sum((levels[:, burn_in - off:T - off]
                                 for off in offsets), 0.0) / len(offsets)
    return norm


def anomaly(
    levels: np.ndarray, m: int, mode: str = "same-quarter"
) -> tuple[np.ndarray, np.ndarray]:
    """(values, norm): the scaled deviation (2/(m+1)) * (level - norm) from
    the trailing norm, and that norm, both (regions, quarters)."""
    norm = historical_norm(levels, m, mode)
    return 2.0 / (m + 1) * (np.asarray(levels, dtype=float) - norm), norm


def sign_split(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(max(x, 0), min(x, 0)), so positive + negative == values; NaN cells
    stay NaN on both sides."""
    return np.maximum(values, 0.0), np.minimum(values, 0.0)


def seasonal_shock(
    values: np.ndarray,
    time,
    season: str,
    polarity: str,
    sign_conditioned: bool = True,
) -> np.ndarray:
    """Anomaly restricted to one season's quarters, one polarity.

    With sign_conditioned (default) only the matching-signed part survives
    inside the season (hot/wet -> positive part, cold/dry -> negative part);
    otherwise the raw anomaly is kept inside the season. Cells outside the
    season are zero; undefined anomaly cells stay NaN.
    """
    check_choice("polarity", polarity, tuple(POLARITY_SIGN))
    in_season = np.array(
        [SEASONS[q.quarter - 1] == season for q in time], dtype=bool
    )
    part = (sign_split(values)[POLARITY_SIGN[polarity] < 0]
            if sign_conditioned else values)
    out = np.where(in_season[None, :], part, 0.0)
    out[np.isnan(values)] = np.nan
    return out


def attach_anomaly_features(
    ds: PanelDataset,
    var: str,
    m: int,
    mode: str = "same-quarter",
    polarities: tuple[str, str] = ("hot", "cold"),
    seasonal: bool = True,
    sign_conditioned: bool = True,
) -> PanelDataset:
    """Compute and append the derived climate series for one variable.

    Adds ``<var>_norm_m<m>``, ``<var>_anom_m<m>`` with ``_pos``/``_neg``
    splits, and optionally ``<var>_<season>_<polarity>_m<m>`` for all four
    seasons. Raises BurnInError when the panel is too short for any cell to
    have m years of history, PanelIntegrityError when it already holds a name.
    """
    values, norm = anomaly(ds.values(var), m, mode)
    if not np.isfinite(values).any():
        raise BurnInError(
            f"{var!r}: no quarter has the {m} years of history needed for "
            f"m={m} norms (panel spans {ds.time[0]}..{ds.time[-1]})"
        )
    shocks = ([seasonal_shock(values, ds.time, season, polarity,
                              sign_conditioned=sign_conditioned)
               for season in SEASONS for polarity in polarities]
              if seasonal else [])
    new = dict(zip(derived_names(var, m, polarities, seasonal),
                   [norm, values, *sign_split(values), *shocks]))
    unit = ds.unit(var)
    return _join(ds, new, dict.fromkeys(new, unit) if unit else {})
