"""Workload definitions and the seeded input generator.

The generator uses only numpy and the standard library and never imports
climpanel, so a change to the program cannot change the benchmark's
inputs. It writes ``climate.csv`` and ``prices.csv`` in the documented
input format (region, year, quarter, value columns; an empty cell marks a
missing value) plus the ``run.ini`` every command is run with.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

OUTCOMES = ("all_items", "food", "non_food", "services", "agriculture",
            "energy")
HORIZONS = tuple(range(9))
LP_LAGS = 8
ARDL_P = 4
# The program's default LP shocks, {m} substituted with the LP window.
SHOCK_PATTERNS = (
    "temperature_winter_cold_m{m}",
    "temperature_spring_hot_m{m}",
    "temperature_summer_hot_m{m}",
    "precipitation_anom_m{m}_pos",
    "precipitation_anom_m{m}_neg",
)


@dataclass(frozen=True)
class Workload:
    name: str
    regions: int
    quarters: int
    start_year: int
    ardl_se: str
    ragged: bool = False
    outcomes: tuple[str, ...] = OUTCOMES
    anomaly_m: tuple[int, ...] = (20, 30, 40)
    lp_m: int = 30

    @property
    def shocks(self) -> tuple[str, ...]:
        return tuple(p.format(m=self.lp_m) for p in SHOCK_PATTERNS)

    @property
    def lp_cells(self) -> int:
        return len(self.shocks) * len(self.outcomes)

    @property
    def lp_regressions(self) -> int:
        return self.lp_cells * len(HORIZONS)

    @property
    def ardl_cells(self) -> int:
        return len(self.outcomes) * len(self.anomaly_m)


WORKLOADS = {
    # README quickstart size: fixed start-up cost dominates every command.
    "demo": Workload("demo", 7, 252, 1962, "classical"),
    # Large balanced panel: LP fits of ~12k rows, full region x period
    # rectangles, and the only Driscoll-Kraay ARDL. Three of the six
    # outcomes are estimated. Not in BENCHMARK.json: one round of its
    # commands takes about 25 s, too long for steady medians in one run;
    # run it by hand with --seconds 120 or more.
    "wide": Workload("wide", 64, 320, 1940, "driscoll-kraay",
                     outcomes=("all_items", "food", "energy")),
    # Mexico's 32 states with late-starting and scattered blank price
    # cells, so two-way absorption has to iterate.
    "ragged": Workload("ragged", 32, 252, 1962, "classical", ragged=True),
}


def tiny(w: Workload) -> Workload:
    """The same workload shrunk so that one pass takes seconds (smoke test)."""
    return replace(w, regions=min(w.regions, 5), quarters=64,
                   anomaly_m=(2, 3, 4), lp_m=3)


def _fmt(mat: np.ndarray, digits: int) -> list[list[str]]:
    return [["" if np.isnan(v) else f"{v:.{digits}f}" for v in row]
            for row in mat]


def _write_csv(path: Path, regions, years, quarters, columns, units) -> None:
    names = list(columns)
    lines = [f"# unit {n} = {units[n]}\n" for n in names]
    lines.append(",".join(["region", "year", "quarter", *names]) + "\n")
    for i, region in enumerate(regions):
        for t in range(len(years)):
            cells = [columns[n][i][t] for n in names]
            lines.append(f"{region},{years[t]},{quarters[t]},"
                         + ",".join(cells) + "\n")
    path.write_text("".join(lines), encoding="utf-8")


def generate(w: Workload, seed: int, data_dir: Path) -> dict[str, np.ndarray]:
    """Write the workload's input CSVs; return every series as the program
    will parse it (region x quarter float matrices, NaN where blank)."""
    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode())])
    R, T = w.regions, w.quarters
    quarters = np.arange(T) % 4 + 1
    years = w.start_year + np.arange(T) // 4
    trend = np.arange(T) / 4.0

    # Temperature: regional level and seasonal swing, warming trend, AR(1).
    cycle = np.array([-1.0, 0.2, 1.0, 0.1])[quarters - 1]
    shocks = rng.normal(0.0, 0.7, (R, T))
    noise = np.empty((R, T))
    noise[:, 0] = shocks[:, 0]
    for t in range(1, T):
        noise[:, t] = 0.5 * noise[:, t - 1] + shocks[:, t]
    temperature = (rng.uniform(12.0, 27.0, R)[:, None]
                   + rng.uniform(2.0, 9.0, R)[:, None] * cycle
                   + 0.015 * trend + noise)

    # Precipitation: positive, wet third quarter, lognormal weather.
    weather = rng.normal(0.0, 0.4, (R, T))
    precipitation = (rng.uniform(15.0, 120.0, R)[:, None]
                     * np.array([0.4, 0.7, 1.5, 1.0])[quarters - 1]
                     * np.exp(weather))

    # Prices: drift plus noise, with food, agriculture and energy reacting
    # to wet and hot quarters over two quarters.
    wet = np.maximum(weather, 0.0)
    hot = np.maximum(noise, 0.0) * (quarters == 3)
    loads = {"all_items": (0.001, 0.0005), "food": (0.004, 0.002),
             "non_food": (0.0, 0.0), "services": (0.0, 0.0),
             "agriculture": (0.006, 0.003), "energy": (0.003, 0.002)}
    prices = {}
    for name in OUTCOMES:
        dlog = rng.uniform(0.006, 0.016) + rng.normal(0.0, 0.008, (R, T))
        lw, lh = loads[name]
        dlog[:, 1:] += lw * (wet[:, 1:] + 0.5 * wet[:, :-1]) + lh * hot[:, 1:]
        prices[name] = 100.0 * np.exp(np.cumsum(dlog, axis=1))

    if w.ragged:
        # Each region's prices start at a seeded quarter within the first
        # third of the sample; about 1% of the later cells are blank.
        first = rng.integers(0, T // 3 + 1, R)
        before = np.arange(T)[None, :] < first[:, None]
        for name in OUTCOMES:
            blank = before | (rng.random((R, T)) < 0.01)
            prices[name] = np.where(blank, np.nan, prices[name])

    regions = ([f"MX{i + 1:02d}" for i in range(R)] if w.ragged
               else [f"R{i + 1:02d}" for i in range(R)])
    climate_text = {"temperature": _fmt(temperature, 3),
                    "precipitation": _fmt(precipitation, 2)}
    price_text = {name: _fmt(prices[name], 4) for name in OUTCOMES}
    data_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(data_dir / "climate.csv", regions, years, quarters,
               climate_text, {"temperature": "degC", "precipitation": "mm"})
    _write_csv(data_dir / "prices.csv", regions, years, quarters, price_text,
               dict.fromkeys(OUTCOMES, "index"))
    parsed = {**climate_text, **price_text}
    return {name: np.array([[float(c) if c else np.nan for c in row]
                            for row in text])
            for name, text in parsed.items()}


def write_config(w: Workload, seed: int, path: Path) -> None:
    """The README quickstart config at the workload's size."""
    outcomes = ",".join(w.outcomes)
    ms = ",".join(str(m) for m in w.anomaly_m)
    path.write_text(
        "[input]\nclimate = data/climate.csv\nprices = data/prices.csv\n\n"
        f"[anomaly]\nm = {ms}\n\n"
        f"[lp]\noutcomes = {outcomes}\nm = {w.lp_m}\n\n"
        f"[ardl]\noutcomes = {outcomes}\nm = {ms}\nse = {w.ardl_se}\n\n"
        "[output]\ndir = out\n\n"
        f"[simulate]\nkind = climate\nseed = {seed}\nregions = {w.regions}\n"
        f"quarters = {w.quarters}\nstart = {w.start_year}Q1\n",
        encoding="utf-8",
    )
