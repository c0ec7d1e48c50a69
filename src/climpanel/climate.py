"""Historical norms, anomalies, sign splits and seasonal shock variants.

The anomaly of a climate level series x at quarter t is

    a[t] = (2 / (m + 1)) * (x[t] - norm[t])

where norm[t] is the trailing m-year moving average of x, using only
observations strictly before t. By default the norm for quarter q of year y
averages quarter q of the preceding m years (same-quarter norm), so the
anomaly reads as a deviation from the historical average for that time of
year; a calendar-blind trailing mean over the last m*frequency quarters is
available as an alternative.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import PanelDataset, shift
from .errors import BurnInError, DegenerateWeightError, SpecError

NORM_MODES = ("same-quarter", "rolling")

SEASONS = ("winter", "spring", "summer", "autumn")

# Northern-hemisphere quarter-to-season map.
SEASON_OF_QUARTER = {1: "winter", 2: "spring", 3: "summer", 4: "autumn"}

# hot/wet keep the positive part of the anomaly, cold/dry the negative part.
POLARITY_SIGN = {"hot": 1, "wet": 1, "cold": -1, "dry": -1}


@dataclass(frozen=True)
class NormParams:
    """Moving-average window: m years at ``frequency`` observations/year."""

    m: int
    frequency: int = 4

    def __post_init__(self):
        if self.m < 1:
            raise SpecError(f"m must be >= 1, got {self.m}")
        if self.frequency < 1:
            raise SpecError(f"frequency must be >= 1, got {self.frequency}")

    @property
    def scale(self) -> float:
        return 2.0 / (self.m + 1)

    @property
    def burn_in(self) -> int:
        """Observations required before the first defined norm."""
        return self.m * self.frequency


@dataclass(frozen=True)
class AnomalySeries:
    """Anomaly values plus the norm they were measured against."""

    variable: str
    params: NormParams
    values: np.ndarray  # (regions, quarters), scaled deviations
    norm: np.ndarray    # (regions, quarters), trailing moving average
    mode: str = "same-quarter"


@dataclass(frozen=True)
class SignedAnomalyPair:
    """Elementwise positive/negative split; positive + negative == anomaly."""

    positive: np.ndarray
    negative: np.ndarray


@dataclass(frozen=True)
class SeasonalShock:
    """Anomaly restricted to one season and one polarity, zero elsewhere."""

    season: str
    polarity: str
    values: np.ndarray


def historical_norm(
    levels: np.ndarray, params: NormParams, mode: str = "same-quarter"
) -> np.ndarray:
    """Trailing m-year moving average, NaN where history is insufficient.

    same-quarter: norm[:, t] averages levels[:, t - l*frequency], l = 1..m.
    rolling: norm[:, t] averages the previous m*frequency observations.

    The window ends strictly before t, so norm[:, t] never depends on
    levels[:, s] with s >= t.
    """
    if mode not in NORM_MODES:
        raise ValueError(f"mode must be one of {NORM_MODES}, got {mode!r}")
    levels = np.asarray(levels, dtype=float)
    if levels.ndim == 1:
        levels = levels[None, :]
    if mode == "same-quarter":
        offsets = [l * params.frequency for l in range(1, params.m + 1)]
    else:
        offsets = list(range(1, params.burn_in + 1))
    # the longest offset is the burn-in, so cells before it come out NaN
    acc = np.zeros(levels.shape)
    for off in offsets:
        acc += shift(levels, off)
    return acc / len(offsets)


def anomaly(
    levels: np.ndarray,
    params: NormParams,
    variable: str = "",
    mode: str = "same-quarter",
) -> AnomalySeries:
    """Scaled deviation from the trailing norm: (2/(m+1)) * (level - norm)."""
    levels = np.asarray(levels, dtype=float)
    if levels.ndim == 1:
        levels = levels[None, :]
    norm = historical_norm(levels, params, mode)
    values = params.scale * (levels - norm)
    return AnomalySeries(variable=variable, params=params, values=values,
                         norm=norm, mode=mode)


def sign_split(a: AnomalySeries | np.ndarray) -> SignedAnomalyPair:
    """Split into max(x, 0) and min(x, 0); NaN cells stay NaN on both sides."""
    values = a.values if isinstance(a, AnomalySeries) else np.asarray(a, float)
    return SignedAnomalyPair(
        positive=np.maximum(values, 0.0),
        negative=np.minimum(values, 0.0),
    )


def seasonal_shock(
    a: AnomalySeries,
    time,
    season: str,
    polarity: str,
    season_map: dict[int, str] | None = None,
    sign_conditioned: bool = True,
) -> SeasonalShock:
    """Anomaly restricted to one season's quarters, one polarity.

    With sign_conditioned (default) only the matching-signed part survives
    inside the season (hot/wet -> positive part, cold/dry -> negative part);
    otherwise the raw anomaly is kept inside the season. Cells outside the
    season are zero; undefined anomaly cells stay NaN.
    """
    if season not in SEASONS:
        raise ValueError(f"season must be one of {SEASONS}, got {season!r}")
    if polarity not in POLARITY_SIGN:
        raise ValueError(f"polarity must be one of {sorted(POLARITY_SIGN)}, "
                         f"got {polarity!r}")
    season_map = season_map or SEASON_OF_QUARTER
    in_season = np.array(
        [season_map[q.quarter] == season for q in time], dtype=bool
    )
    if sign_conditioned:
        part = (np.maximum(a.values, 0.0) if POLARITY_SIGN[polarity] > 0
                else np.minimum(a.values, 0.0))
    else:
        part = a.values
    values = np.where(in_season[None, :], part, 0.0)
    values[np.isnan(a.values)] = np.nan
    return SeasonalShock(season=season, polarity=polarity, values=values)


def weighted_aggregate(
    values: np.ndarray, weights, groups, regions=None
) -> tuple[tuple[str, ...], np.ndarray]:
    """Weighted mean of unit-level rows within each region.

    values is (units, quarters); groups assigns each unit row to a region;
    weights are nonnegative unit weights. Returns the region order and the
    (regions, quarters) matrix of weighted means.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    groups = [str(g) for g in groups]
    if values.ndim != 2 or len(groups) != values.shape[0]:
        raise ValueError("values must be (units, quarters) matching groups")
    if weights.shape != (values.shape[0],):
        raise ValueError("one weight per unit row required")
    if (weights < 0).any():
        raise ValueError("weights must be nonnegative")
    if regions is None:
        seen = []
        for g in groups:
            if g not in seen:
                seen.append(g)
        regions = tuple(seen)
    else:
        regions = tuple(str(r) for r in regions)
    out = np.empty((len(regions), values.shape[1]))
    for i, region in enumerate(regions):
        rows = [j for j, g in enumerate(groups) if g == region]
        total = weights[rows].sum()
        if not rows or total <= 0:
            raise DegenerateWeightError(
                f"region {region!r} has zero total weight"
            )
        out[i] = weights[rows] @ values[rows] / total
    return regions, out


def anomaly_name(var: str, m: int) -> str:
    return f"{var}_anom_m{m}"


def seasonal_name(var: str, season: str, polarity: str, m: int) -> str:
    return f"{var}_{season}_{polarity}_m{m}"


def attach_anomaly_features(
    ds: PanelDataset,
    var: str,
    m: int,
    mode: str = "same-quarter",
    polarities: tuple[str, str] = ("hot", "cold"),
    seasonal: bool = True,
    sign_conditioned: bool = True,
    frequency: int = 4,
) -> PanelDataset:
    """Compute and append the derived climate series for one variable.

    Adds ``<var>_norm_m<m>``, ``<var>_anom_m<m>`` with ``_pos``/``_neg``
    splits, and optionally ``<var>_<season>_<polarity>_m<m>`` for all four
    seasons. Raises BurnInError when the panel is too short for any cell to
    have m years of history.
    """
    params = NormParams(m=m, frequency=frequency)
    a = anomaly(ds.values(var), params, variable=var, mode=mode)
    if not np.isfinite(a.values).any():
        raise BurnInError(
            f"{var!r}: no quarter has the {m} years of history needed for "
            f"m={m} norms (panel spans {ds.time[0]}..{ds.time[-1]})"
        )
    unit = ds.unit(var)
    base = anomaly_name(var, m)
    out = ds.with_series(f"{var}_norm_m{m}", a.norm, unit)
    out = out.with_series(base, a.values, unit)
    pair = sign_split(a)
    out = out.with_series(f"{base}_pos", pair.positive, unit)
    out = out.with_series(f"{base}_neg", pair.negative, unit)
    if seasonal:
        for season in SEASONS:
            for polarity in polarities:
                shock = seasonal_shock(
                    a, ds.time, season, polarity,
                    sign_conditioned=sign_conditioned,
                )
                out = out.with_series(
                    seasonal_name(var, season, polarity, m), shock.values, unit
                )
    return out
