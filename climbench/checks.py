"""Output checks: file sets, run reports, repeat identity and oracle cells.

Every check returns a list of error strings; an empty list means the
output passed. The oracles recompute one LP cell and one ARDL cell from the
generated inputs with explicit region and time dummies (np.linalg.lstsq)
and a double-loop Driscoll-Kraay sum; they share no code with climpanel.
"""
from __future__ import annotations

import csv
import math
import random
import re
from pathlib import Path

import numpy as np

from .inputs import ARDL_P, HORIZONS, LP_LAGS, Workload

# Relative tolerances for the oracle comparison: slopes and long-run
# effects as in the acceptance suite, standard errors one step looser
# because they accumulate second moments.
SLOPE_RTOL = 1e-8
SE_RTOL = 1e-6

CLIMATE_VARS = ("temperature", "precipitation")


def expected_files(cmd: str, w: Workload) -> set[str]:
    if cmd == "simulate":
        names = {"climate.csv", "prices.csv"}
    elif cmd == "anomaly":
        names = {f"{kind}_{var}_m{m}.csv" for kind in ("anomaly", "norms_audit")
                 for var in CLIMATE_VARS for m in w.anomaly_m}
    elif cmd == "lp":
        names = {f"irf_{s}__{o}.csv" for s in w.shocks for o in w.outcomes}
        names.add("irf_table.csv")
    elif cmd == "ardl":
        names = {f"longrun_{o}.txt" for o in w.outcomes}
        names |= {"longrun_table.csv", "annualized_summary.csv"}
    else:
        names = {"summary_stats.csv"}
    return names | {f"run_report_{cmd}.txt"}


def check_files(out_dir: Path, expected: set[str]) -> list[str]:
    found = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    errors = []
    if found - expected:
        errors.append(f"{out_dir.name}: unexpected files {sorted(found - expected)}")
    if expected - found:
        errors.append(f"{out_dir.name}: missing files {sorted(expected - found)}")
    return errors


def same_bytes(a: Path, b: Path) -> list[str]:
    """Every file of directory a must exist in b with identical bytes."""
    if not a.is_dir():
        return [f"{a}: no outputs to compare"]
    errors = []
    for pa in sorted(a.iterdir()):
        pb = b / pa.name
        if not pb.is_file() or pa.read_bytes() != pb.read_bytes():
            errors.append(f"{pa.name}: output differs between repeats")
    return errors


_CELLS_RE = re.compile(
    r"^cells: (\d+) attempted, \d+ estimated, (\d+) failed$", re.M)
_HORIZONS_RE = re.compile(r"^horizon failures: (\d+)$", re.M)


def _text(path: Path) -> str:
    return path.read_text(encoding="utf-8") if path.is_file() else ""


def report_failures(lp_dir: Path, ardl_dir: Path, w: Workload):
    """(LP horizons failed, ARDL cells failed, errors) from the run reports.

    A failed LP cell counts as all of its horizons failed."""
    lp_text = _text(lp_dir / "run_report_lp.txt")
    lp = _CELLS_RE.search(lp_text)
    hz = _HORIZONS_RE.search(lp_text)
    ardl = _CELLS_RE.search(_text(ardl_dir / "run_report_ardl.txt"))
    if not (lp and hz and ardl):
        return (w.lp_regressions, w.ardl_cells,
                ["run reports lack their 'cells:' or 'horizon failures:' line"])
    attempted = (int(lp[1]), int(ardl[1]))
    expected = (w.lp_cells, w.ardl_cells)
    errors = ([] if attempted == expected else
              [f"cells attempted (lp, ardl) {attempted}, expected {expected}"])
    horizons = int(lp[2]) * len(HORIZONS) + int(hz[1])
    cells = int(ardl[2])
    if horizons or cells:
        errors.append(f"estimation failures: {horizons} LP horizons, "
                      f"{cells} ARDL cells")
    return horizons, cells, errors


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))


def _close(name: str, got: float, want: float, scale: float, rtol: float):
    """got == want up to rtol relative to max(|want|, |scale|)."""
    if not abs(got - want) <= rtol * max(abs(want), abs(scale), 1e-300):
        return [f"{name}: program {got!r} vs oracle {float(want)!r} (rtol {rtol})"]
    return []


# ---------------------------------------------------------------------------
# Oracle building blocks
# ---------------------------------------------------------------------------

def _anomaly(level: np.ndarray, m: int) -> np.ndarray:
    """(2/(m+1)) * (level - mean of the same quarter in the m prior years)."""
    R, T = level.shape
    out = np.full((R, T), np.nan)
    for t in range(4 * m, T):
        norm = sum(level[:, t - 4 * l] for l in range(1, m + 1)) / m
        out[:, t] = 2.0 / (m + 1) * (level[:, t] - norm)
    return out


def _signed(a: np.ndarray, sign: int) -> np.ndarray:
    return np.maximum(a, 0.0) if sign > 0 else np.minimum(a, 0.0)


_SEASON_QUARTER = {"winter": 1, "spring": 2, "summer": 3, "autumn": 4}
_POLARITY_SIGN = {"hot": 1, "wet": 1, "cold": -1, "dry": -1}


def _shock_series(name: str, data: dict, m: int) -> np.ndarray:
    var, rest = name.split("_", 1)
    a = _anomaly(data[var], m)
    if rest == f"anom_m{m}_pos":
        return _signed(a, 1)
    if rest == f"anom_m{m}_neg":
        return _signed(a, -1)
    season, polarity, _ = rest.split("_")
    q = _SEASON_QUARTER[season]
    in_season = (np.arange(a.shape[1]) % 4 + 1) == q
    out = np.where(in_season[None, :], _signed(a, _POLARITY_SIGN[polarity]), 0.0)
    out[np.isnan(a)] = np.nan
    return out


def _drop_singletons(rows: list[tuple], dims: tuple[int, ...]) -> list[tuple]:
    while True:
        kept = rows
        for d in dims:
            counts: dict = {}
            for row in kept:
                counts[row[d]] = counts.get(row[d], 0) + 1
            kept = [row for row in kept if counts[row[d]] > 1]
        if len(kept) == len(rows):
            return rows
        rows = kept


def _dummy_fit(rows: list[tuple], two_way: bool):
    """LSDV fit of rows (region, period, y, x...) with explicit dummies.

    Returns coef, the dummy-partialled regressors, residuals, the number of
    absorbed effects and the period of each row."""
    a = np.array(rows, dtype=float)
    region, period, y, X = a[:, 0], a[:, 1], a[:, 2], a[:, 3:]
    dims = (region, period) if two_way else (region,)
    D = np.hstack([(c[:, None] == np.unique(c)[None, :]).astype(float)
                   for c in dims])
    XD = np.hstack([X, D])
    coef = np.linalg.lstsq(XD, y, rcond=None)[0]
    x_within = X - D @ np.linalg.lstsq(D, X, rcond=None)[0]
    absorbed = sum(len(np.unique(c)) for c in dims) - (len(dims) - 1)
    return coef[:X.shape[1]], x_within, y - XD @ coef, absorbed, list(period)


def _rule_bandwidth(n_periods: int) -> int:
    return int(math.floor(4.0 * (n_periods / 100.0) ** (2.0 / 9.0)))


def _dk_vcov(x_within, resid, periods, bandwidth: int, absorbed: int):
    """Driscoll-Kraay covariance by an explicit double loop over periods,
    with the program's dof-aware small-sample factor nobs / dof."""
    n, k = x_within.shape
    h = {}
    for i, p in enumerate(periods):
        h[p] = h.get(p, np.zeros(k)) + x_within[i] * resid[i]
    meat = np.zeros((k, k))
    for p in h:
        for q in h:
            lag = abs(p - q)
            if lag <= bandwidth:
                meat += (1.0 - lag / (bandwidth + 1.0)) * np.outer(h[p], h[q])
    meat *= n / (n - k - absorbed)
    bread = np.linalg.inv(x_within.T @ x_within)
    return bread @ meat @ bread


def _classical_vcov(x_within, resid, absorbed: int):
    n, k = x_within.shape
    return (resid @ resid / (n - k - absorbed)
            * np.linalg.inv(x_within.T @ x_within))


# ---------------------------------------------------------------------------
# Spot checks
# ---------------------------------------------------------------------------

def pick_cells(w: Workload, seed: int):
    """The LP (shock, outcome, horizon) and ARDL (outcome, m) cells checked
    for this seed."""
    rng = random.Random(seed)
    lp = (rng.choice(w.shocks), rng.choice(w.outcomes), rng.choice(HORIZONS))
    return lp, (rng.choice(w.outcomes), rng.choice(w.anomaly_m))


def check_lp_cell(data: dict, lp_dir: Path, w: Workload, cell) -> list[str]:
    shock_name, outcome, h = cell
    shock = _shock_series(shock_name, data, w.lp_m)
    logp = np.log(data[outcome])
    R, T = logp.shape
    rows = []
    for r in range(R):
        for t in range(LP_LAGS + 1, T - h):
            lags = [logp[r, t - n] - logp[r, t - n - 1]
                    for n in range(1, LP_LAGS + 1)]
            row = (r, t, logp[r, t + h] - logp[r, t - 1], shock[r, t], *lags)
            if all(np.isfinite(row[2:])):
                rows.append(row)
    rows = _drop_singletons(rows, (0, 1))
    coef, xw, resid, absorbed, periods = _dummy_fit(rows, two_way=True)
    bandwidth = max(_rule_bandwidth(len(set(periods))), h)
    se = math.sqrt(_dk_vcov(xw, resid, periods, bandwidth, absorbed)[0, 0])

    where = f"lp {shock_name}/{outcome}/h={h}"
    path = lp_dir / f"irf_{shock_name}__{outcome}.csv"
    got = [r for r in _read_rows(path) if r["horizon"] == str(h)] \
        if path.is_file() else []
    if len(got) != 1:
        return [f"{where}: no row in {path.name}"]
    g = got[0]
    errors = _close(f"{where} estimate", float(g["estimate"]), coef[0], se,
                    SLOPE_RTOL)
    errors += _close(f"{where} se", float(g["se"]), se, se, SE_RTOL)
    if int(g["nobs"]) != len(rows):
        errors.append(f"{where} nobs: program {g['nobs']} vs oracle {len(rows)}")
    return errors


def check_ardl_cell(data: dict, ardl_dir: Path, w: Workload, cell) -> list[str]:
    outcome, m = cell
    p = ARDL_P
    logy = np.log(data[outcome])
    R, T = logy.shape
    block = []
    for var in CLIMATE_VARS:
        a = _anomaly(data[var], m)
        block += [_signed(a, 1), _signed(a, -1)]
    rows = []
    for r in range(R):
        for t in range(p + 1, T):
            dy = [logy[r, t - l] - logy[r, t - l - 1] for l in range(0, p + 1)]
            dx = [x[r, t - l] - x[r, t - l - 1]
                  for x in block for l in range(0, p + 1)]
            row = (r, t, dy[0], *dy[1:], *dx)
            if all(np.isfinite(row[2:])):
                rows.append(row)
    rows = _drop_singletons(rows, (0,))
    coef, xw, resid, absorbed, periods = _dummy_fit(rows, two_way=False)
    if w.ardl_se == "classical":
        vcovs = [_classical_vcov(xw, resid, absorbed)]
    else:
        # The documented rule floor(4 (T/100)^(2/9)) is accepted with T
        # either the panel's quarters or the estimation sample's periods.
        vcovs = [_dk_vcov(xw, resid, periods, _rule_bandwidth(n), absorbed)
                 for n in sorted({T, len(set(periods))})]

    k = len(coef)
    phi = 1.0 - coef[:p].sum()
    labels = [f"{var}_{sign}" for var in CLIMATE_VARS for sign in ("pos", "neg")]
    want = {}
    for j, label in enumerate(labels):
        idx = list(range(p + j * (p + 1), p + (j + 1) * (p + 1)))
        theta = coef[idx].sum() / phi
        grad = np.zeros(k)
        grad[idx] = 1.0 / phi
        grad[:p] = theta / phi
        want[label] = (theta, [math.sqrt(max(grad @ v @ grad, 0.0))
                               for v in vcovs])
    ones = np.zeros(k)
    ones[:p] = 1.0
    phi_ses = [math.sqrt(ones @ v @ ones) for v in vcovs]

    where = f"ardl {outcome}/m={m}"
    path = ardl_dir / "longrun_table.csv"
    got = {r["variable"]: r for r in (_read_rows(path) if path.is_file() else [])
           if r["outcome"] == outcome and r["m"] == str(m)}
    if set(got) != set(labels):
        return [f"{where}: rows {sorted(got)} in longrun_table.csv"]
    # one bandwidth reading must fit every standard error of the cell
    se_errors = [[] for _ in vcovs]
    errors = []
    for label, (theta, ses) in want.items():
        g = got[label]
        errors += _close(f"{where} theta[{label}]", float(g["theta"]), theta,
                         ses[0], SLOPE_RTOL)
        for i, se in enumerate(ses):
            se_errors[i] += _close(f"{where} se[{label}]", float(g["se"]), se,
                                   se, SE_RTOL)
    g = got[labels[0]]
    errors += _close(f"{where} phi", float(g["phi"]), phi, phi_ses[0],
                     SLOPE_RTOL)
    for i, phi_se in enumerate(phi_ses):
        se_errors[i] += _close(f"{where} phi_se", float(g["phi_se"]), phi_se,
                               phi_se, SE_RTOL)
    if all(se_errors):
        errors += se_errors[0]
    if int(g["nobs"]) != len(rows):
        errors.append(f"{where} nobs: program {g['nobs']} vs oracle {len(rows)}")
    return errors
