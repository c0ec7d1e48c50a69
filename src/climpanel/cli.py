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
import hashlib
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import click

from . import __version__
from .ardl import ardl_suite
from .climate import (
    NORM_MODES,
    SEASONS,
    anomaly_name,
    attach_anomaly_features,
    seasonal_name,
)
from .dataset import (
    PanelDataset,
    PanelSchema,
    QuarterIndex,
    comment_lines,
    load_panel,
    merge_panels,
    subset,
    summary_stats,
    write_csv as _write_csv,
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

def _require(ok, where: str, rule: str) -> None:
    if not ok:
        raise ConfigError(f"{where} {rule}")


def _check_quarter(where: str, label: str | None) -> None:
    if label is not None:
        try:
            QuarterIndex.parse(label)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None


def _check_windows(where: str, ms: tuple[int, ...]) -> None:
    _require(ms and min(ms) >= 1, where,
             f"must list norm windows of at least 1 year, got {ms}")


# Each section is a frozen dataclass: its fields are the section's keys,
# their defaults the defaults, their annotations pick the value parser, and
# __post_init__ rejects out-of-range values (also after a CLI override).

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

    def __post_init__(self):
        _check_quarter("[input] start", self.start)
        _check_quarter("[input] end", self.end)


@dataclass(frozen=True)
class AnomalyConfig:
    m: tuple[int, ...] = (20, 30, 40)
    mode: str = "same-quarter"
    seasonal: bool = True
    sign_conditioned: bool = True

    def __post_init__(self):
        _check_windows("[anomaly] m", self.m)
        _require(self.mode in NORM_MODES, "[anomaly] mode",
                 f"must be one of {NORM_MODES}")


@dataclass(frozen=True)
class LPConfig:
    outcomes: tuple[str, ...] = ()
    shocks: tuple[str, ...] = (
        "temperature_winter_cold_m{m}",
        "temperature_spring_hot_m{m}",
        "temperature_summer_hot_m{m}",
        "precipitation_anom_m{m}_pos",
        "precipitation_anom_m{m}_neg",
    )
    m: int = 30
    horizons: tuple[int, ...] = tuple(range(9))
    lags: int = 8
    level: float = 0.90
    bandwidth: int | None = None
    small_sample: bool = True
    fixed_effects: tuple[str, ...] = ("region", "time")

    def __post_init__(self):
        _require(self.shocks, "[lp] shocks", "must not be empty")
        _check_windows("[lp] m", (self.m,))
        _require(self.horizons and min(self.horizons) >= 0, "[lp] horizons",
                 f"must list horizons >= 0, got {self.horizons}")
        _require(self.lags >= 0, "[lp] lags", "must be >= 0")
        _require(0.0 < self.level < 1.0, "[lp] level", "must be in (0, 1)")
        _require(self.bandwidth is None or self.bandwidth >= 0,
                 "[lp] bandwidth", "must be >= 0")
        _require(set(self.fixed_effects) <= {"region", "time"}
                 and len(set(self.fixed_effects)) == len(self.fixed_effects),
                 "[lp] fixed_effects", "may name region and time, each once")
        try:
            self.shock_names()
        except (KeyError, IndexError, ValueError):
            raise ConfigError(f"[lp] shocks: bad placeholder in {self.shocks} "
                              "(only {m} is substituted)") from None

    def shock_names(self) -> tuple[str, ...]:
        """The shock series, with {m} replaced by the norm window."""
        return tuple(pattern.format(m=self.m) for pattern in self.shocks)


@dataclass(frozen=True)
class ARDLConfig:
    outcomes: tuple[str, ...] = ()
    m: tuple[int, ...] = (20, 30, 40)
    p: int = 4
    se: str = "classical"
    bandwidth: int | None = None
    small_sample: bool = True

    def __post_init__(self):
        _check_windows("[ardl] m", self.m)
        _require(self.p >= 0, "[ardl] p", "must be >= 0")
        _require(self.se in ("classical", "driscoll-kraay"), "[ardl] se",
                 "must be classical or driscoll-kraay")
        _require(self.bandwidth is None or self.bandwidth >= 0,
                 "[ardl] bandwidth", "must be >= 0")


@dataclass(frozen=True)
class SimulateConfig:
    kind: str = "climate"
    seed: int = 20240101
    regions: int = 7
    quarters: int = 252
    start: str = "1962Q1"

    def __post_init__(self):
        _require(self.kind in ("climate", "lp", "ardl"), "[simulate] kind",
                 "must be climate, lp or ardl")
        _require(self.seed >= 0, "[simulate] seed", "must be >= 0")
        _require(self.regions >= 1, "[simulate] regions", "must be >= 1")
        _require(self.quarters >= 1, "[simulate] quarters", "must be >= 1")
        _check_quarter("[simulate] start", self.start)


@dataclass(frozen=True)
class StatsConfig:
    variables: tuple[str, ...] = ()


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"


@dataclass(frozen=True)
class RunConfig:
    input: InputConfig
    anomaly: AnomalyConfig
    lp: LPConfig
    ardl: ARDLConfig
    simulate: SimulateConfig
    stats: StatsConfig
    out_dir: str
    hash: str


_SECTIONS = {
    "input": InputConfig,
    "anomaly": AnomalyConfig,
    "lp": LPConfig,
    "ardl": ARDLConfig,
    "simulate": SimulateConfig,
    "stats": StatsConfig,
    "output": OutputConfig,
}


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _parse_list(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in _parse_list(text))


def _parse_horizons(text: str) -> tuple[int, ...]:
    text = text.strip()
    if "-" in text and "," not in text:
        lo, hi = (int(s) for s in text.split("-", 1))
        if hi < lo:
            raise ValueError(f"empty horizon range {text!r}")
        return tuple(range(lo, hi + 1))
    return _parse_int_list(text)


# field annotation (a string, as annotations are postponed) -> value parser
_PARSERS = {
    "bool": _parse_bool,
    "int": int,
    "int | None": lambda text: int(text) if text.strip() else None,
    "float": float,
    "str": str,
    "str | None": str,
    "tuple[str, ...]": _parse_list,
    "tuple[int, ...]": _parse_int_list,
}


def _parse(parse, text: str, where: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_section(parser: configparser.ConfigParser, name: str, cls):
    """The section's dataclass, every key given parsed by its field type."""
    types = {f.name: f.type for f in fields(cls)}
    values = {}
    for key, text in (parser[name] if parser.has_section(name) else {}).items():
        if key not in types:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
        # [lp] horizons also takes an a-b range
        parse = (_parse_horizons if (name, key) == ("lp", "horizons")
                 else _PARSERS[types[key]])
        values[key] = _parse(parse, text, f"[{name}] {key}")
    return cls(**values)


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
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
    sections = {name: _parse_section(parser, name, cls)
                for name, cls in _SECTIONS.items()}

    if m_list is not None:
        # replace re-validates; an empty list fails at [anomaly] m first
        ms = _parse(_parse_int_list, m_list, "--m")
        try:
            sections["anomaly"] = replace(sections["anomaly"], m=ms)
            sections["ardl"] = replace(sections["ardl"], m=ms)
            sections["lp"] = replace(sections["lp"], m=ms[0])
        except ConfigError as exc:
            raise ConfigError(f"--m: {exc}") from None
    if seed is not None:
        sections["simulate"] = replace(sections["simulate"], seed=seed)
    output = sections.pop("output")

    # the output directory is deliberately left out of the hash: it changes
    # where files land, never what they contain
    resolved = {name: vars(sec) for name, sec in sections.items()}
    digest = hashlib.sha256(
        json.dumps(resolved, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]
    return RunConfig(**sections, hash=digest,
                     out_dir=output.dir if out_dir is None else out_dir)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _header(cfg: RunConfig, units: dict[str, str] | None = None) -> list[str]:
    lines = [f"climpanel {__version__}", f"config sha256 {cfg.hash}"]
    if units:
        lines.append("units: " + "; ".join(f"{k}={v}" for k, v in units.items()))
    return lines


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {str(out)!r}: "
                          f"{exc.strerror}") from None
    return out


def _write_run_report(cfg: RunConfig, command: str, facts: dict, written,
                      failures: dict | None = None) -> None:
    """run_report_<command>.txt: one 'name: value' line per fact (after
    the command, version and config hash), the files written, then each
    nonempty failure list under its heading. A 'files' fact (the file
    count) heads the file list in place of the bare 'files:' line."""
    facts = {"command": command, "climpanel": __version__,
             "config": cfg.hash, **facts}
    lines = [f"{name}: {value}" for name, value in facts.items()]
    if "files" not in facts:
        lines.append("files:")
    lines += [f"  {name}" for name in written]
    for heading, items in (failures or {}).items():
        if items:
            lines += [f"{heading}:", *(f"  {item}" for item in items)]
    path = Path(cfg.out_dir) / f"run_report_{command}.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


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


def _climate_vars(cfg: RunConfig):
    """(climate variable, its seasonal polarities) pairs."""
    return ((cfg.input.temperature_var, ("hot", "cold")),
            (cfg.input.precipitation_var, ("wet", "dry")))


def _attach_all(cfg: RunConfig, ds: PanelDataset, ms, seasonal: bool) -> PanelDataset:
    for var, polarities in _climate_vars(cfg):
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
    ds = _attach_all(cfg, _load_climate(cfg), cfg.anomaly.m,
                     cfg.anomaly.seasonal)
    out = _out_dir(cfg)
    written = []
    for var, polarities in _climate_vars(cfg):
        for m in cfg.anomaly.m:
            anom = anomaly_name(var, m)
            derived = [anom, f"{anom}_pos", f"{anom}_neg"]
            if cfg.anomaly.seasonal:
                derived += [seasonal_name(var, season, polarity, m)
                            for season in SEASONS for polarity in polarities]
            files = {f"anomaly_{var}_m{m}.csv": derived,
                     f"norms_audit_{var}_m{m}.csv":
                         [var, f"{var}_norm_m{m}", anom]}
            for name, series in files.items():
                write_panel(subset(ds, series), out / name, _schema(cfg),
                            header_comments=_header(cfg))
                written.append(name)
    _write_run_report(cfg, "anomaly", {
        "m": ",".join(str(m) for m in cfg.anomaly.m),
        "files": len(written),
    }, written)
    click.echo(f"anomaly: wrote {len(written)} files to {out}")


def _cmd_lp(cfg: RunConfig) -> None:
    if not cfg.lp.outcomes:
        raise ConfigError("[lp] outcomes: at least one outcome is required")
    ds = _load_merged(cfg)
    ds = _attach_all(cfg, ds, [cfg.lp.m], seasonal=True)
    shocks = cfg.lp.shock_names()
    window = _window(cfg, ds)
    # a blank bandwidth (None) means max(rule, h) for each horizon
    hac = HACSpec(cfg.lp.bandwidth, cfg.lp.small_sample)
    out = _out_dir(cfg)

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
                  significance_stars(r.estimate, r.se)]
                 for r in res.responses],
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
    _write_run_report(cfg, "lp", {
        "cells": f"{n_cells} attempted, {len(results)} estimated, "
                 f"{len(cell_failures)} failed",
        "horizon failures": len(horizon_failures),
    }, written, {"failed cells": cell_failures,
                 "failed horizons": horizon_failures})
    click.echo(f"lp: {len(results)}/{n_cells} cells estimated, "
               f"outputs in {out}")


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
    failed = [f"{f.outcome}/m={f.m}: {f.message}" for f in suite.failures]
    if not suite.tables:
        raise EstimationError("all ARDL cells failed: " + " | ".join(failed))
    out = _out_dir(cfg)
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
        notes = [*_header(cfg, units),
                 "standard errors in parentheses; *** 1%, ** 5%, * 10%"]
        path.write_text(comment_lines(notes) + _longrun_text(outcome, tables),
                        encoding="utf-8")
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
    _write_run_report(cfg, "ardl", {
        "cells": f"{n_cells} attempted, {len(suite.tables)} estimated, "
                 f"{len(failed)} failed",
    }, written, {"failed cells": failed})
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
    path = _out_dir(cfg) / "summary_stats.csv"
    units = {v: ds.unit(v) or "unknown" for v in variables}
    _write_csv(
        path, _header(cfg, units),
        ["variable", "region", "min", "q1", "median", "q3", "max", "mean",
         "sd"],
        rows,
    )
    _write_run_report(cfg, "stats", {"variables": len(variables)},
                      [path.name])
    click.echo(f"stats: wrote {path}")


def _cmd_simulate(cfg: RunConfig) -> None:
    out = _out_dir(cfg)
    sim = cfg.simulate
    make = {"climate": climate_panel, "lp": lp_panel, "ardl": ardl_panel}
    ds = make[sim.kind](n_regions=sim.regions, n_quarters=sim.quarters,
                        start=sim.start, seed=sim.seed)
    if sim.kind == "climate":
        files = {"climate.csv": subset(ds, ["temperature", "precipitation"]),
                 "prices.csv": subset(ds, list(PRICE_COMPONENTS))}
    else:
        files = {f"{sim.kind}_panel.csv": ds}
    for name, panel in files.items():
        write_panel(panel, out / name, header_comments=_header(cfg))
    _write_run_report(cfg, "simulate", {"kind": sim.kind, "seed": sim.seed},
                      files)
    click.echo(f"simulate: wrote {', '.join(files)} to {out}")


# ---------------------------------------------------------------------------
# Click wiring
# ---------------------------------------------------------------------------

@click.group()
@click.version_option(__version__, prog_name="climpanel")
def cli():
    """Climate norms and anomalies, LP impulse responses, and ARDL long-run
    effects for regional quarterly panels."""


def _make_command(name, body, help_text):
    @cli.command(name=name, help=help_text)
    @click.option("--config", "config_path", default=None,
                  type=click.Path(), help="INI config file.")
    @click.option("--out", "out_dir", default=None,
                  help="Override [output] dir.")
    @click.option("--m", "m_list", default=None,
                  help="Override norm windows, e.g. 20,30,40 "
                       "(lp uses the first entry).")
    @click.option("--seed", type=int, default=None,
                  help="Override [simulate] seed.")
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
