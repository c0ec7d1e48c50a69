"""Command-line pipeline: ingest -> anomalies -> local projections / ARDL.

Configuration is an INI-style file with flat key=value sections; unknown
sections or keys are rejected. Identical config plus identical inputs
produce byte-identical outputs: every emitted file carries the toolkit
version and a hash of the resolved configuration, never a timestamp.

Exit codes: 0 success, 1 usage/config, 2 data validation, 3 estimation
failure in every cell.
"""
from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import click

from . import __version__
from .ardl import ardl_suite
from .climate import NORM_MODES, attach_anomaly_features
from .dataset import (
    PanelDataset,
    PanelSchema,
    QuarterIndex,
    load_panel,
    merge_panels,
    subset,
    summary_stats,
    write_panel,
)
from .errors import (
    ClimPanelError,
    ConfigError,
    DataValidationError,
    EstimationError,
)
from .localproj import LPSpec, estimate_irf, irf_table
from .regress import HACSpec, significance_stars
from .simulate import PRICE_COMPONENTS, ardl_panel, climate_panel, lp_panel


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InputConfig:
    climate: str | None = None
    prices: str | None = None
    region_col: str = "region"
    year_col: str = "year"
    quarter_col: str = "quarter"
    missing: str = ""
    temperature_var: str = "temperature"
    precipitation_var: str = "precipitation"
    start: str | None = None
    end: str | None = None


@dataclass(frozen=True)
class AnomalyConfig:
    m: tuple[int, ...] = (20, 30, 40)
    mode: str = "same-quarter"
    seasonal: bool = True
    sign_conditioned: bool = True


DEFAULT_LP_SHOCKS = (
    "temperature_winter_cold_m{m}",
    "temperature_spring_hot_m{m}",
    "temperature_summer_hot_m{m}",
    "precipitation_anom_m{m}_pos",
    "precipitation_anom_m{m}_neg",
)


@dataclass(frozen=True)
class LPConfig:
    outcomes: tuple[str, ...] = ()
    shocks: tuple[str, ...] = DEFAULT_LP_SHOCKS
    m: int = 30
    horizons: tuple[int, ...] = tuple(range(9))
    lags: int = 8
    level: float = 0.90
    bandwidth: int | None = None
    small_sample: bool = True
    fixed_effects: tuple[str, ...] = ("region", "time")


@dataclass(frozen=True)
class ARDLConfig:
    outcomes: tuple[str, ...] = ()
    m: tuple[int, ...] = (20, 30, 40)
    p: int = 4
    se: str = "classical"
    bandwidth: int | None = None
    small_sample: bool = True


@dataclass(frozen=True)
class SimulateConfig:
    kind: str = "climate"
    seed: int = 20240101
    regions: int = 7
    quarters: int = 252
    start: str = "1962Q1"


@dataclass(frozen=True)
class StatsConfig:
    variables: tuple[str, ...] = ()


@dataclass(frozen=True)
class RunConfig:
    input: InputConfig
    anomaly: AnomalyConfig
    lp: LPConfig
    ardl: ARDLConfig
    simulate: SimulateConfig
    stats: StatsConfig
    out_dir: str = "out"
    hash: str = ""


def _parse_bool(text: str, where: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ConfigError(f"{where}: expected true/false, got {text!r}")


def _parse_int(text: str, where: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"{where}: expected integer, got {text!r}") from None


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise ConfigError(f"{where}: expected number, got {text!r}") from None


def _parse_list(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _parse_int_list(text: str, where: str) -> tuple[int, ...]:
    return tuple(_parse_int(s, where) for s in _parse_list(text))


def _parse_horizons(text: str, where: str) -> tuple[int, ...]:
    text = text.strip()
    if "-" in text and "," not in text:
        lo, hi = text.split("-", 1)
        a, b = _parse_int(lo, where), _parse_int(hi, where)
        if b < a:
            raise ConfigError(f"{where}: empty horizon range {text!r}")
        return tuple(range(a, b + 1))
    return _parse_int_list(text, where)


_SCHEMA: dict[str, set[str]] = {
    "input": {"climate", "prices", "region_col", "year_col", "quarter_col",
              "missing", "temperature_var", "precipitation_var",
              "start", "end"},
    "anomaly": {"m", "mode", "seasonal", "sign_conditioned"},
    "lp": {"outcomes", "shocks", "m", "horizons", "lags", "level",
           "bandwidth", "small_sample", "fixed_effects"},
    "ardl": {"outcomes", "m", "p", "se", "bandwidth", "small_sample"},
    "simulate": {"kind", "seed", "regions", "quarters", "start"},
    "stats": {"variables"},
    "output": {"dir"},
}


def load_config(
    path: str | None,
    out_dir: str | None = None,
    m_list: str | None = None,
    seed: int | None = None,
) -> RunConfig:
    """Parse and validate a config file, applying CLI overrides.

    Unknown sections or keys raise ConfigError. The returned config carries
    a hash of the fully resolved settings for output-file headers.
    """
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        try:
            read = parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path!r}: {exc}") from None
        if not read:
            raise ConfigError(f"cannot read config file {path!r}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    def get(section, key, default=None):
        if parser.has_option(section, key):
            return parser.get(section, key)
        return default

    def where(section, key):
        return f"[{section}] {key}"

    inp = InputConfig(
        climate=get("input", "climate"),
        prices=get("input", "prices"),
        region_col=get("input", "region_col", "region"),
        year_col=get("input", "year_col", "year"),
        quarter_col=get("input", "quarter_col", "quarter"),
        missing=get("input", "missing", ""),
        temperature_var=get("input", "temperature_var", "temperature"),
        precipitation_var=get("input", "precipitation_var", "precipitation"),
        start=get("input", "start"),
        end=get("input", "end"),
    )
    for label, q in (("start", inp.start), ("end", inp.end)):
        if q is not None:
            try:
                QuarterIndex.parse(q)
            except ValueError as exc:
                raise ConfigError(f"[input] {label}: {exc}") from None

    mode = get("anomaly", "mode", "same-quarter")
    if mode not in NORM_MODES:
        raise ConfigError(f"[anomaly] mode must be one of {NORM_MODES}")
    anom = AnomalyConfig(
        m=_parse_int_list(get("anomaly", "m", "20,30,40"), where("anomaly", "m")),
        mode=mode,
        seasonal=_parse_bool(get("anomaly", "seasonal", "true"),
                             where("anomaly", "seasonal")),
        sign_conditioned=_parse_bool(
            get("anomaly", "sign_conditioned", "true"),
            where("anomaly", "sign_conditioned")),
    )

    lp_bw = get("lp", "bandwidth", "")
    lp = LPConfig(
        outcomes=_parse_list(get("lp", "outcomes", "")),
        shocks=_parse_list(get("lp", "shocks", "")) or DEFAULT_LP_SHOCKS,
        m=_parse_int(get("lp", "m", "30"), where("lp", "m")),
        horizons=_parse_horizons(get("lp", "horizons", "0-8"),
                                 where("lp", "horizons")),
        lags=_parse_int(get("lp", "lags", "8"), where("lp", "lags")),
        level=_parse_float(get("lp", "level", "0.90"), where("lp", "level")),
        bandwidth=_parse_int(lp_bw, where("lp", "bandwidth")) if lp_bw.strip() else None,
        small_sample=_parse_bool(get("lp", "small_sample", "true"),
                                 where("lp", "small_sample")),
        fixed_effects=_parse_list(get("lp", "fixed_effects", "region,time")),
    )
    if not 0.0 < lp.level < 1.0:
        raise ConfigError("[lp] level must be in (0, 1)")
    for dim in lp.fixed_effects:
        if dim not in ("region", "time"):
            raise ConfigError(f"[lp] fixed_effects: unknown dimension {dim!r}")

    se = get("ardl", "se", "classical")
    if se not in ("classical", "driscoll-kraay"):
        raise ConfigError("[ardl] se must be classical or driscoll-kraay")
    ardl_bw = get("ardl", "bandwidth", "")
    ardl = ARDLConfig(
        outcomes=_parse_list(get("ardl", "outcomes", "")),
        m=_parse_int_list(get("ardl", "m", "20,30,40"), where("ardl", "m")),
        p=_parse_int(get("ardl", "p", "4"), where("ardl", "p")),
        se=se,
        bandwidth=_parse_int(ardl_bw, where("ardl", "bandwidth")) if ardl_bw.strip() else None,
        small_sample=_parse_bool(get("ardl", "small_sample", "true"),
                                 where("ardl", "small_sample")),
    )

    kind = get("simulate", "kind", "climate")
    if kind not in ("climate", "lp", "ardl"):
        raise ConfigError("[simulate] kind must be climate, lp or ardl")
    sim = SimulateConfig(
        kind=kind,
        seed=_parse_int(get("simulate", "seed", "20240101"),
                        where("simulate", "seed")),
        regions=_parse_int(get("simulate", "regions", "7"),
                           where("simulate", "regions")),
        quarters=_parse_int(get("simulate", "quarters", "252"),
                            where("simulate", "quarters")),
        start=get("simulate", "start", "1962Q1"),
    )
    stats_cfg = StatsConfig(variables=_parse_list(get("stats", "variables", "")))
    out = get("output", "dir", "out")

    if out_dir is not None:
        out = out_dir
    if m_list is not None:
        ms = _parse_int_list(m_list, "--m")
        if not ms:
            raise ConfigError("--m: empty list")
        anom = AnomalyConfig(m=ms, mode=anom.mode, seasonal=anom.seasonal,
                             sign_conditioned=anom.sign_conditioned)
        ardl = ARDLConfig(outcomes=ardl.outcomes, m=ms, p=ardl.p, se=ardl.se,
                          bandwidth=ardl.bandwidth,
                          small_sample=ardl.small_sample)
        lp = LPConfig(outcomes=lp.outcomes, shocks=lp.shocks, m=ms[0],
                      horizons=lp.horizons, lags=lp.lags, level=lp.level,
                      bandwidth=lp.bandwidth, small_sample=lp.small_sample,
                      fixed_effects=lp.fixed_effects)
    if seed is not None:
        sim = SimulateConfig(kind=sim.kind, seed=seed, regions=sim.regions,
                             quarters=sim.quarters, start=sim.start)

    # the output directory is deliberately left out of the hash: it changes
    # where files land, never what they contain
    resolved = {
        "input": dict(vars(inp)),
        "anomaly": dict(vars(anom)),
        "lp": dict(vars(lp)),
        "ardl": dict(vars(ardl)),
        "simulate": dict(vars(sim)),
        "stats": dict(vars(stats_cfg)),
    }
    digest = hashlib.sha256(
        json.dumps(resolved, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]
    return RunConfig(input=inp, anomaly=anom, lp=lp, ardl=ardl, simulate=sim,
                     stats=stats_cfg, out_dir=out, hash=digest)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _header(cfg: RunConfig, units: dict[str, str] | None = None) -> list[str]:
    lines = [f"climpanel {__version__}", f"config sha256 {cfg.hash}"]
    if units:
        lines.append("units: " + "; ".join(f"{k}={v}" for k, v in units.items()))
    return lines


def _cell(v) -> str:
    if isinstance(v, float):
        return "" if math.isnan(v) else repr(v)
    return str(v)


def _write_csv(path: Path, comments, fieldnames, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _write_report(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _schema(cfg: RunConfig) -> PanelSchema:
    return PanelSchema(
        region=cfg.input.region_col,
        year=cfg.input.year_col,
        quarter=cfg.input.quarter_col,
        missing=cfg.input.missing,
    )


def _window(cfg: RunConfig, ds: PanelDataset):
    if cfg.input.start is None and cfg.input.end is None:
        return None
    start = cfg.input.start or str(ds.time[0])
    end = cfg.input.end or str(ds.time[-1])
    return (start, end)


def _load_climate(cfg: RunConfig) -> PanelDataset:
    if not cfg.input.climate:
        raise ConfigError("[input] climate: path to the climate CSV is required")
    return load_panel(cfg.input.climate, _schema(cfg))


def _load_merged(cfg: RunConfig) -> PanelDataset:
    ds = _load_climate(cfg)
    if not cfg.input.prices:
        raise ConfigError("[input] prices: path to the price CSV is required")
    prices = load_panel(cfg.input.prices, _schema(cfg))
    # the climate file fixes the region order, so the price file may list
    # its regions in any order without changing a result; the price series
    # still come first
    merged = merge_panels(ds, prices)
    return subset(merged, prices.variables + ds.variables)


def _attach_all(cfg: RunConfig, ds: PanelDataset, ms, seasonal: bool) -> PanelDataset:
    pairs = (
        (cfg.input.temperature_var, ("hot", "cold")),
        (cfg.input.precipitation_var, ("wet", "dry")),
    )
    for var, polarities in pairs:
        for m in ms:
            ds = attach_anomaly_features(
                ds, var, m,
                mode=cfg.anomaly.mode,
                polarities=polarities,
                seasonal=seasonal,
                sign_conditioned=cfg.anomaly.sign_conditioned,
            )
    return ds


# ---------------------------------------------------------------------------
# Command bodies
# ---------------------------------------------------------------------------

def _cmd_anomaly(cfg: RunConfig) -> None:
    ds = _load_climate(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    pairs = (
        (cfg.input.temperature_var, ("hot", "cold")),
        (cfg.input.precipitation_var, ("wet", "dry")),
    )
    for var, polarities in pairs:
        for m in cfg.anomaly.m:
            aug = attach_anomaly_features(
                ds, var, m,
                mode=cfg.anomaly.mode,
                polarities=polarities,
                seasonal=cfg.anomaly.seasonal,
                sign_conditioned=cfg.anomaly.sign_conditioned,
            )
            derived = [f"{var}_anom_m{m}", f"{var}_anom_m{m}_pos",
                       f"{var}_anom_m{m}_neg"]
            if cfg.anomaly.seasonal:
                derived += [name for name in aug.variables
                            if name.endswith(f"_m{m}")
                            and name.startswith(f"{var}_")
                            and name not in derived
                            and not name.startswith(f"{var}_anom")
                            and not name.startswith(f"{var}_norm")]
            path = out / f"anomaly_{var}_m{m}.csv"
            write_panel(subset(aug, derived), path, _schema(cfg),
                        header_comments=_header(cfg))
            written.append(path.name)
            audit = out / f"norms_audit_{var}_m{m}.csv"
            write_panel(
                subset(aug, [var, f"{var}_norm_m{m}", f"{var}_anom_m{m}"]),
                audit, _schema(cfg), header_comments=_header(cfg),
            )
            written.append(audit.name)
    report = [
        "command: anomaly",
        f"climpanel: {__version__}",
        f"config: {cfg.hash}",
        f"m: {','.join(str(m) for m in cfg.anomaly.m)}",
        f"files: {len(written)}",
        *(f"  {name}" for name in written),
    ]
    _write_report(out / "run_report_anomaly.txt", report)
    click.echo(f"anomaly: wrote {len(written)} files to {out}")


def _resolve_shocks(cfg: RunConfig) -> tuple[str, ...]:
    resolved = []
    for pattern in cfg.lp.shocks:
        try:
            resolved.append(pattern.format(m=cfg.lp.m))
        except (KeyError, IndexError, ValueError):
            raise ConfigError(
                f"[lp] shocks: bad placeholder in {pattern!r} "
                "(only {m} is substituted)"
            ) from None
    return tuple(resolved)


def _cmd_lp(cfg: RunConfig) -> None:
    if not cfg.lp.outcomes:
        raise ConfigError("[lp] outcomes: at least one outcome is required")
    ds = _load_merged(cfg)
    ds = _attach_all(cfg, ds, [cfg.lp.m], seasonal=True)
    shocks = _resolve_shocks(cfg)
    window = _window(cfg, ds)
    # a blank bandwidth (None) means max(rule, h) for each horizon
    hac = HACSpec(cfg.lp.bandwidth, cfg.lp.small_sample)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # every shock of an outcome is estimated in one call, which fits the
    # shocks sharing a sample together; files and reports stay shock-major
    by_cell = {}
    for outcome in cfg.lp.outcomes:
        spec = LPSpec(
            outcome=outcome, shock=shocks[0], horizons=cfg.lp.horizons,
            lags=cfg.lp.lags, fixed_effects=cfg.lp.fixed_effects,
            hac=hac, level=cfg.lp.level, sample=window,
        )
        for res in estimate_irf(ds, spec, shocks=shocks):
            by_cell[(res.shock, outcome)] = res
    results = []
    cell_failures = []
    written = []
    units = {"horizon": "quarters",
             "estimate": "log change of outcome per unit shock",
             "se": "same as estimate", "lo": "band lower", "hi": "band upper"}
    for shock in shocks:
        for outcome in cfg.lp.outcomes:
            res = by_cell[(shock, outcome)]
            if not res.responses and res.failures:
                cell_failures.append(f"shock={shock} outcome={outcome}: "
                                     f"{res.failures[0].message}")
                continue
            results.append(res)
            path = out / f"irf_{shock}__{outcome}.csv"
            _write_csv(
                path, _header(cfg, units),
                ["horizon", "estimate", "se", "lo", "hi", "nobs", "stars"],
                [[r.horizon, r.estimate, r.se, r.band[0], r.band[1], r.nobs,
                  _stars_of(r)] for r in res.responses],
            )
            written.append(path.name)
    if not results:
        raise EstimationError(
            "all LP cells failed: " + " | ".join(cell_failures)
        )
    rows = irf_table(results)
    table_path = out / "irf_table.csv"
    _write_csv(
        table_path, _header(cfg, units),
        ["shock", "outcome", "horizon", "estimate", "se", "stars"],
        [[r.shock, r.outcome, r.horizon, r.estimate, r.se, r.stars]
         for r in rows],
    )
    written.append(table_path.name)
    horizon_failures = [
        f"shock={res.shock} outcome={res.outcome} h={f.horizon}: {f.message}"
        for res in results for f in res.failures
    ]
    n_cells = len(shocks) * len(cfg.lp.outcomes)
    report = [
        "command: lp",
        f"climpanel: {__version__}",
        f"config: {cfg.hash}",
        f"cells: {n_cells} attempted, {len(results)} estimated, "
        f"{len(cell_failures)} failed",
        f"horizon failures: {len(horizon_failures)}",
        "files:",
        *(f"  {name}" for name in written),
    ]
    if cell_failures:
        report.append("failed cells:")
        report.extend(f"  {line}" for line in cell_failures)
    if horizon_failures:
        report.append("failed horizons:")
        report.extend(f"  {line}" for line in horizon_failures)
    _write_report(out / "run_report_lp.txt", report)
    click.echo(f"lp: {len(results)}/{n_cells} cells estimated, "
               f"outputs in {out}")


def _stars_of(r) -> str:
    return significance_stars(r.estimate, r.se)


def _longrun_label(variable: str, m: int) -> str:
    return variable.replace(f"_anom_m{m}", "")


def _longrun_text(outcome: str, tables) -> str:
    tables = sorted(tables, key=lambda t: t.m)
    width = 16
    head = f"Long-run effects: {outcome}"
    cols = "".join(f"{f'{t.m} yr MA':>{width}}" for t in tables)
    lines = [head, "=" * max(len(head), 24), f"{'':24}{cols}"]
    n_block = len(tables[0].effects)
    for i in range(n_block):
        label = f"theta[{_longrun_label(tables[0].effects[i].variable, tables[0].m)}]"
        est = "".join(
            f"{f'{t.effects[i].theta:.4f} {t.effects[i].stars}'.rstrip():>{width}}"
            for t in tables)
        ses = "".join(f"{f'({t.effects[i].se:.4f})':>{width}}" for t in tables)
        lines.append(f"{label:24}{est}")
        lines.append(f"{'':24}{ses}")
    est = "".join(f"{f'{t.phi:.4f} {t.phi_stars}'.rstrip():>{width}}"
                  for t in tables)
    ses = "".join(f"{f'({t.phi_se:.4f})':>{width}}" for t in tables)
    lines.append(f"{'phi':24}{est}")
    lines.append(f"{'':24}{ses}")
    lines.append(f"{'nobs':24}" + "".join(f"{t.nobs:>{width}}" for t in tables))
    return "\n".join(lines) + "\n"


def _cmd_ardl(cfg: RunConfig) -> None:
    if not cfg.ardl.outcomes:
        raise ConfigError("[ardl] outcomes: at least one outcome is required")
    ds = _load_merged(cfg)
    ds = _attach_all(cfg, ds, cfg.ardl.m, seasonal=False)
    window = _window(cfg, ds)
    hac = (HACSpec(cfg.ardl.bandwidth, cfg.ardl.small_sample)
           if cfg.ardl.se == "driscoll-kraay" else None)
    suite = ardl_suite(
        ds, cfg.ardl.outcomes, cfg.ardl.m,
        cfg.input.temperature_var, cfg.input.precipitation_var,
        p=cfg.ardl.p, hac=hac, sample=window,
    )
    if not suite.tables:
        raise EstimationError(
            "all ARDL cells failed: "
            + " | ".join(f"{f.outcome}/m={f.m}: {f.message}"
                         for f in suite.failures)
        )
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    units = {"theta": "log change per unit of the block variable",
             "annualized": "theta * 2/(m+1)"}
    rows = []
    for t in suite.tables:
        for e in t.effects:
            rows.append([t.outcome, t.m, _longrun_label(e.variable, t.m),
                         e.theta, e.se, e.stars, e.annualized,
                         t.phi, t.phi_se, t.phi_stars, t.nobs])
    table_path = out / "longrun_table.csv"
    _write_csv(
        table_path, _header(cfg, units),
        ["outcome", "m", "variable", "theta", "se", "stars", "annualized",
         "phi", "phi_se", "phi_stars", "nobs"],
        rows,
    )
    written.append(table_path.name)
    for outcome in cfg.ardl.outcomes:
        tables = [t for t in suite.tables if t.outcome == outcome]
        if not tables:
            continue
        path = out / f"longrun_{outcome}.txt"
        with open(path, "w", encoding="utf-8") as fh:
            for c in _header(cfg, units):
                fh.write(f"# {c}\n")
            fh.write("# standard errors in parentheses; "
                     "*** 1%, ** 5%, * 10%\n")
            fh.write(_longrun_text(outcome, tables))
        written.append(path.name)
    ann_path = out / "annualized_summary.csv"
    _write_csv(
        ann_path, _header(cfg, units),
        ["outcome", "m", "variable", "theta", "annualized", "annualized_4dp"],
        [[t.outcome, t.m, _longrun_label(e.variable, t.m), e.theta,
          e.annualized, f"{e.annualized:.4f}"]
         for t in suite.tables for e in t.effects],
    )
    written.append(ann_path.name)
    n_cells = len(cfg.ardl.outcomes) * len(cfg.ardl.m)
    report = [
        "command: ardl",
        f"climpanel: {__version__}",
        f"config: {cfg.hash}",
        f"cells: {n_cells} attempted, {len(suite.tables)} estimated, "
        f"{len(suite.failures)} failed",
        "files:",
        *(f"  {name}" for name in written),
    ]
    if suite.failures:
        report.append("failed cells:")
        report.extend(f"  {f.outcome}/m={f.m}: {f.message}"
                      for f in suite.failures)
    _write_report(out / "run_report_ardl.txt", report)
    click.echo(f"ardl: {len(suite.tables)}/{n_cells} cells estimated, "
               f"outputs in {out}")


def _cmd_stats(cfg: RunConfig) -> None:
    if cfg.input.climate and cfg.input.prices:
        ds = _load_merged(cfg)
    elif cfg.input.climate:
        ds = _load_climate(cfg)
    elif cfg.input.prices:
        ds = load_panel(cfg.input.prices, _schema(cfg))
    else:
        raise ConfigError("[input] climate or prices path is required")
    variables = cfg.stats.variables or ds.variables
    rows = []
    for var in variables:
        for s in summary_stats(ds, var):
            rows.append([var, s.region, s.min, s.q1, s.median, s.q3, s.max,
                         s.mean, s.sd])
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "summary_stats.csv"
    units = {v: ds.unit(v) or "unknown" for v in variables}
    _write_csv(
        path, _header(cfg, units),
        ["variable", "region", "min", "q1", "median", "q3", "max", "mean",
         "sd"],
        rows,
    )
    _write_report(out / "run_report_stats.txt", [
        "command: stats",
        f"climpanel: {__version__}",
        f"config: {cfg.hash}",
        f"variables: {len(variables)}",
        "files:",
        f"  {path.name}",
    ])
    click.echo(f"stats: wrote {path}")


def _cmd_simulate(cfg: RunConfig) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sim = cfg.simulate
    written = []
    if sim.kind == "climate":
        ds = climate_panel(sim.regions, sim.quarters, sim.start, sim.seed)
        climate_path = out / "climate.csv"
        write_panel(subset(ds, ["temperature", "precipitation"]),
                    climate_path, header_comments=_header(cfg))
        prices_path = out / "prices.csv"
        write_panel(subset(ds, list(PRICE_COMPONENTS)), prices_path,
                    header_comments=_header(cfg))
        written += [climate_path.name, prices_path.name]
    elif sim.kind == "lp":
        ds = lp_panel(n_regions=sim.regions, n_quarters=sim.quarters,
                      start=sim.start, seed=sim.seed)
        path = out / "lp_panel.csv"
        write_panel(ds, path, header_comments=_header(cfg))
        written.append(path.name)
    else:
        ds = ardl_panel(n_regions=sim.regions, n_quarters=sim.quarters,
                        start=sim.start, seed=sim.seed)
        path = out / "ardl_panel.csv"
        write_panel(ds, path, header_comments=_header(cfg))
        written.append(path.name)
    _write_report(out / "run_report_simulate.txt", [
        "command: simulate",
        f"climpanel: {__version__}",
        f"config: {cfg.hash}",
        f"kind: {sim.kind}",
        f"seed: {sim.seed}",
        "files:",
        *(f"  {name}" for name in written),
    ])
    click.echo(f"simulate: wrote {', '.join(written)} to {out}")


# ---------------------------------------------------------------------------
# Click wiring
# ---------------------------------------------------------------------------

def _common_options(fn):
    fn = click.option("--seed", type=int, default=None,
                      help="Override [simulate] seed.")(fn)
    fn = click.option("--m", "m_list", default=None,
                      help="Override norm windows, e.g. 20,30,40 "
                           "(lp uses the first entry).")(fn)
    fn = click.option("--out", "out_dir", default=None,
                      help="Override [output] dir.")(fn)
    fn = click.option("--config", "config_path", default=None,
                      type=click.Path(), help="INI config file.")(fn)
    return fn


@click.group()
@click.version_option(__version__, prog_name="climpanel")
def cli():
    """Climate norms and anomalies, LP impulse responses, and ARDL long-run
    effects for regional quarterly panels."""


def _make_command(name, body, help_text):
    @cli.command(name=name, help=help_text)
    @_common_options
    def _cmd(config_path, out_dir, m_list, seed):
        cfg = load_config(config_path, out_dir, m_list, seed)
        body(cfg)
    return _cmd


anomaly_cmd = _make_command(
    "anomaly", _cmd_anomaly,
    "Compute norms, anomalies, sign splits and seasonal shocks; write the "
    "series plus a norms audit file.")
lp_cmd = _make_command(
    "lp", _cmd_lp,
    "Estimate cumulative impulse responses of each outcome to each "
    "configured shock.")
ardl_cmd = _make_command(
    "ardl", _cmd_ardl,
    "Estimate ARDL long-run effects per outcome and norm window, with "
    "annualized summaries.")
stats_cmd = _make_command(
    "stats", _cmd_stats,
    "Per-region summary statistics for panel variables.")
simulate_cmd = _make_command(
    "simulate", _cmd_simulate,
    "Generate seeded synthetic panels (demo climate/prices, LP DGP, "
    "ARDL DGP).")


def main(argv=None) -> int:
    """Entry point mapping toolkit errors to exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 1
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 1
    except DataValidationError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except EstimationError as exc:
        click.echo(f"estimation error: {exc}", err=True)
        return 3
    except ClimPanelError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
