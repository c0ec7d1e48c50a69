"""Seeded synthetic panel generators.

Backs the `simulate` CLI subcommand and the Monte Carlo checks: a demo
climate/prices panel, an i.i.d.-shock price DGP for local projections and
a lagged-adjustment DGP for the ARDL estimator. All generators are
deterministic given the seed.
"""
from __future__ import annotations

import numpy as np

from .dataset import PanelDataset
from .specs import QuarterIndex, quarter_range

MEXICO_REGIONS = (
    "north-centre",
    "north-east",
    "north-west",
    "northern-border",
    "mexico-city",
    "south",
    "south-centre",
)

PRICE_COMPONENTS = (
    "all_items", "food", "non_food", "services", "agriculture", "energy",
)


def _grid(n_regions: int, n_quarters: int, start):
    start = QuarterIndex.parse(start)
    time = quarter_range(start, start.offset(n_quarters - 1))
    if n_regions <= len(MEXICO_REGIONS):
        regions = MEXICO_REGIONS[:n_regions]
    else:
        regions = tuple(f"region{i + 1:02d}" for i in range(n_regions))
    return regions, time


def lp_panel(
    n_regions: int = 7,
    n_quarters: int = 88,
    beta: float = 0.3,
    region_sd: float = 0.0,
    time_sd: float = 0.0,
    start="2002Q1",
    seed: int = 0,
) -> PanelDataset:
    """Price panel whose one-quarter log change is beta * shock + noise.

    Shock and noise are i.i.d. standard normal, so the true cumulative
    response of log(P[t+h]) - log(P[t-1]) to a unit shock at t is beta at
    every h. Series: 'price' (level, from 100), 'shock'.
    """
    rng = np.random.default_rng(seed)
    regions, time = _grid(n_regions, n_quarters, start)
    R, T = len(regions), len(time)
    shock = rng.normal(0.0, 1.0, (R, T))
    dlog = beta * shock + rng.normal(0.0, 1.0, (R, T))
    if region_sd:
        dlog += rng.normal(0.0, region_sd, (R, 1))
    if time_sd:
        dlog += rng.normal(0.0, time_sd, (1, T))
    log_p = np.log(100.0) + np.cumsum(dlog, axis=1)
    return PanelDataset(
        regions, time,
        {"price": np.exp(log_p), "shock": shock},
        {"price": "index", "shock": "unit"},
    )


def ardl_panel(
    n_regions: int = 7,
    n_quarters: int = 88,
    phi=(0.5,),
    beta=(0.2, 0.1),
    start="2002Q1",
    seed: int = 0,
) -> PanelDataset:
    """Price panel following dy[t] = sum phi_l dy[t-l] + sum beta_l dx[t-l] + e.

    The driver x is a random walk (dx and e i.i.d. standard normal, from 50
    quarters before the panel), so differencing it in the ARDL design
    recovers the innovations. The implied long-run effect is
    sum(beta) / (1 - sum(phi)). Series: 'price' (from 100), 'driver'.
    """
    rng = np.random.default_rng(seed)
    regions, time = _grid(n_regions, n_quarters, start)
    R, T = len(regions), len(time)
    burn_in = 50
    total = T + burn_in
    dx = rng.normal(0.0, 1.0, (R, total))
    eps = rng.normal(0.0, 1.0, (R, total))
    dy = np.zeros((R, total))
    for t in range(total):
        val = eps[:, t]
        for l, ph in enumerate(phi, start=1):
            if t - l >= 0:
                val = val + ph * dy[:, t - l]
        for l, b in enumerate(beta):
            if t - l >= 0:
                val = val + b * dx[:, t - l]
        dy[:, t] = val
    dy = dy[:, burn_in:]
    x = np.cumsum(dx, axis=1)[:, burn_in:]
    log_p = np.log(100.0) + np.cumsum(dy, axis=1)
    return PanelDataset(
        regions, time,
        {"price": np.exp(log_p), "driver": x},
        {"price": "index", "driver": "unit"},
    )


def climate_panel(
    n_regions: int = 7,
    n_quarters: int = 252,
    start="1962Q1",
    seed: int = 0,
) -> PanelDataset:
    """Demo panel with seasonal climate series and six price indices.

    Temperature has a region-specific seasonal cycle, a mild warming trend
    and AR(1) noise; precipitation is positive with a wet-season cycle.
    Price indices drift upward with idiosyncratic noise, and the food,
    agriculture and energy components load mildly on unusually wet quarters
    so downstream estimates have something to find.
    """
    rng = np.random.default_rng(seed)
    regions, time = _grid(n_regions, n_quarters, start)
    R, T = len(regions), len(time)
    quarters = np.array([q.quarter for q in time])
    years = np.arange(T) / 4.0

    base_t = rng.uniform(14.0, 26.0, R)
    amp_t = rng.uniform(3.0, 8.0, R)
    season_t = np.array([0.0, 0.9, 1.0, 0.2])[quarters - 1]
    noise_t = np.empty((R, T))
    noise_t[:, 0] = rng.normal(0.0, 0.6, R)
    shocks = rng.normal(0.0, 0.6, (R, T))
    for t in range(1, T):
        noise_t[:, t] = 0.5 * noise_t[:, t - 1] + shocks[:, t]
    temperature = base_t[:, None] + amp_t[:, None] * season_t[None, :] \
        + 0.012 * years[None, :] + noise_t

    base_p = rng.uniform(20.0, 110.0, R)
    season_p = np.array([0.3, 0.6, 1.6, 0.9])[quarters - 1]
    wet = rng.lognormal(0.0, 0.35, (R, T))
    precipitation = base_p[:, None] * season_p[None, :] * wet

    wet_excess = np.log(wet)
    series = {"temperature": temperature, "precipitation": precipitation}
    loadings = {
        "all_items": 0.0005, "food": 0.002, "non_food": 0.0,
        "services": 0.0, "agriculture": 0.003, "energy": 0.002,
    }
    for name in PRICE_COMPONENTS:
        drift = rng.uniform(0.008, 0.014)
        dlog = drift + rng.normal(0.0, 0.008, (R, T))
        dlog += loadings[name] * np.maximum(wet_excess, 0.0)
        series[name] = np.exp(np.log(100.0) + np.cumsum(dlog, axis=1))

    units = {"temperature": "degC", "precipitation": "mm"}
    units.update({name: "index" for name in PRICE_COMPONENTS})
    return PanelDataset(regions, time, series, units)
