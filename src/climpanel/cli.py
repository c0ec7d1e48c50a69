"""Command-line pipeline: ingest -> anomalies -> local projections / ARDL.

Configuration is an INI-style file with flat key=value sections; unknown
sections or keys are rejected. Identical config plus identical inputs
produce byte-identical outputs: every emitted file carries the toolkit
version and a hash of the resolved configuration, never a timestamp.

Exit codes: 0 success, 1 usage/config, 2 data validation, 3 estimation
failure in every cell.
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import re
import sys
from pathlib import Path

from . import __version__, ardl
from ._record import Record
from .climate import NORM_MODES, attach_anomaly_features, derived_names
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
    SpecError,
)
from .localproj import LPSpec, estimate_irf
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


def _check_path(where: str, path: str | None) -> None:
    # the OS takes no NUL in a file name; open() would raise a bare ValueError
    _require(path is None or "\0" not in path, where,
             "must not contain a NUL byte")


def _spec_rules(where: str, build, *args):
    """build(*args), its SpecError a ConfigError prefixed by where: the
    message starts with the field, the section's key of the same name."""
    try:
        return build(*args)
    except SpecError as exc:
        raise ConfigError(f"{where} {exc}") from None


# Each section is an immutable Record: its fields are the section's keys,
# their defaults the defaults, their annotations pick the value parser, and
# __post_init__ rejects out-of-range values, also by building the library
# records its command runs. A section is built once, after the CLI
# overrides are applied, so an override can replace a bad file value.

class InputConfig(Record):
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
        _check_path("[input] climate", self.climate)
        _check_path("[input] prices", self.prices)
        _check_quarter("[input] start", self.start)
        _check_quarter("[input] end", self.end)
        _require(None in (self.start, self.end)
                 or QuarterIndex.parse(self.start)
                 <= QuarterIndex.parse(self.end),
                 "[input] start", f"must not be after [input] end, got "
                 f"{self.start} > {self.end}")
        _spec_rules("[input] region_col, year_col and quarter_col:",
                    self.schema)
        # anomaly would write both variables' files under one set of names
        _require(self.temperature_var != self.precipitation_var,
                 "[input] temperature_var and precipitation_var",
                 "must name two different columns, got "
                 f"{(self.temperature_var, self.precipitation_var)}")

    def schema(self) -> PanelSchema:
        return PanelSchema(self.region_col, self.year_col, self.quarter_col,
                           self.missing)


class AnomalyConfig(Record):
    m: tuple[int, ...] = (20, 30, 40)
    mode: str = "same-quarter"
    seasonal: bool = True
    sign_conditioned: bool = True

    def __post_init__(self):
        _check_windows("[anomaly] m", self.m)
        _require(self.mode in NORM_MODES, "[anomaly] mode",
                 f"must be one of {NORM_MODES}")


class LPConfig(Record):
    outcomes: tuple[str, ...] = ()
    shocks: tuple[str, ...] = ()   # load_config fills in _default_shocks
    m: int = 30
    horizons: tuple[int, ...] = LPSpec.horizons
    lags: int = LPSpec.lags
    level: float = LPSpec.level
    bandwidth: int | None = None
    small_sample: bool = HACSpec.small_sample
    fixed_effects: tuple[str, ...] = LPSpec.fixed_effects

    def __post_init__(self):
        _check_windows("[lp] m", (self.m,))
        try:
            names = self.shock_names()
        except (KeyError, IndexError, ValueError, AttributeError, TypeError):
            raise ConfigError(f"[lp] shocks: bad placeholder in {self.shocks} "
                              "(only {m} is substituted)") from None
        _parse(_each_once, names, f"[lp] shocks (with {{m}} = {self.m})")
        _require(set(self.fixed_effects) <= {"region", "time"},
                 "[lp] fixed_effects", "may name region and time")
        _spec_rules("[lp]", self.spec, "")

    def shock_names(self) -> tuple[str, ...]:
        """The shock series, with {m} replaced by the norm window."""
        return tuple(pattern.format(m=self.m) for pattern in self.shocks)

    def spec(self, outcome: str, sample=None) -> LPSpec:
        """One outcome's LPSpec; a blank bandwidth is max(rule, h)."""
        hac = HACSpec(self.bandwidth, self.small_sample)
        return LPSpec(outcome, self.shock_names(), self.horizons, self.lags,
                      self.fixed_effects, hac, self.level, sample)


class ARDLConfig(Record):
    outcomes: tuple[str, ...] = ()
    m: tuple[int, ...] = (20, 30, 40)
    p: int = ardl.ARDLSpec.p
    se: str = "classical"
    bandwidth: int | None = None
    small_sample: bool = HACSpec.small_sample

    def __post_init__(self):
        _check_windows("[ardl] m", self.m)
        _require(self.se in ("classical", "driscoll-kraay"), "[ardl] se",
                 "must be classical or driscoll-kraay")
        # the outcome and block are each cell's; any one stands in here
        _spec_rules("[ardl]", self.spec, "", ("",), self.m[0])

    def spec(self, outcome: str, block, m: int, sample=None) -> ardl.ARDLSpec:
        """One cell's ARDLSpec; classical se also checks the bandwidth."""
        hac = HACSpec(self.bandwidth, self.small_sample)
        return ardl.ARDLSpec(outcome, block, self.p, m, sample=sample,
                             hac=hac if self.se == "driscoll-kraay" else None)


class SimulateConfig(Record):
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


class StatsConfig(Record):
    variables: tuple[str, ...] = ()


class OutputConfig(Record):
    dir: str = "out"

    def __post_init__(self):
        _check_path("[output] dir", self.dir)


class RunConfig(Record):
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


def _default_shocks(inp: dict) -> tuple[str, ...]:
    """[lp] shocks when the file gives none, from the climate column names
    in the [input] values inp, with {m} left in."""
    t, p = (inp.get(key, getattr(InputConfig, key))
            .replace("{", "{{").replace("}", "}}")   # braces are literal
            for key in ("temperature_var", "precipitation_var"))
    cold = derived_names(t, "{m}", ("cold",))[4:]   # one per season
    hot = derived_names(t, "{m}", ("hot",))[4:]
    pos, neg = derived_names(p, "{m}", seasonal=False)[2:]
    return (cold[0], hot[1], hot[2], pos, neg)   # winter, spring, summer


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _each_once(items: tuple) -> tuple:
    """items, unless one is listed twice: every list names each entry once."""
    repeated = [x for i, x in enumerate(items) if x in items[:i]]
    if repeated:
        raise ValueError(f"lists {repeated[0]!r} twice")
    return items


def _parse_list(text: str) -> tuple[str, ...]:
    return _each_once(tuple(s.strip() for s in text.split(",") if s.strip()))


def _parse_int_list(text: str) -> tuple[int, ...]:
    # compared as ints, so 30 and 030 are one entry
    return _each_once(tuple(int(s) for s in text.split(",") if s.strip()))


_HORIZON_RANGE = re.compile(r"(\d+)\s*-\s*(\d+)")


def _parse_horizons(text: str) -> tuple[int, ...]:
    """An a-b range of nonnegative ints, else a list (so -2 is a list)."""
    text = text.strip()
    match = _HORIZON_RANGE.fullmatch(text)
    if match:
        lo, hi = (int(s) for s in match.groups())
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


def _parse_section(parser: configparser.ConfigParser, name: str, cls) -> dict:
    """The section's keys as given, each parsed by its field type but not
    yet checked against its range."""
    types = cls.__annotations__
    values = {}
    for key, text in (parser[name] if parser.has_section(name) else {}).items():
        if key not in types:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
        # [lp] horizons also takes an a-b range
        parse = (_parse_horizons if (name, key) == ("lp", "horizons")
                 else _PARSERS[types[key]])
        values[key] = _parse(parse, text, f"[{name}] {key}")
    return values


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
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"malformed config file {path!r}: {exc}") from None
        if not read:
            raise ConfigError(f"cannot read config file {path!r}")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
    raw = {name: _parse_section(parser, name, cls)
           for name, cls in _SECTIONS.items()}
    if m_list is not None:
        ms = _parse(_parse_int_list, m_list, "--m")
        # a bad list is named by the first section it lands in, [anomaly]
        _check_windows("--m: [anomaly] m", ms)
        raw["anomaly"]["m"] = raw["ardl"]["m"] = ms
        raw["lp"]["m"] = ms[0]
    _check_path("--out", out_dir)
    if seed is not None:
        raw["simulate"]["seed"] = seed
    raw["lp"].setdefault("shocks", _default_shocks(raw["input"]))
    sections = {name: cls(**raw[name]) for name, cls in _SECTIONS.items()}
    output = sections.pop("output")

    # the output directory is deliberately left out of the hash: it changes
    # where files land, never what they contain
    resolved = {name: vars(sec) for name, sec in sections.items()}
    digest = hashlib.sha256(
        json.dumps(resolved, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]
    # paths in the file are relative to the file, hashed as written above;
    # --out is relative to the working directory
    base = os.path.dirname(path or "")
    inp = sections["input"]
    sections["input"] = inp.replace(
        **{key: os.path.join(base, getattr(inp, key))
                for key in ("climate", "prices") if getattr(inp, key)})
    return RunConfig(**sections, hash=digest,
                     out_dir=os.path.join(base, output.dir)
                     if out_dir is None else out_dir)


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


def _window(cfg: RunConfig, ds: PanelDataset):
    if cfg.input.start is None and cfg.input.end is None:
        return None
    start = cfg.input.start or str(ds.time[0])
    end = cfg.input.end or str(ds.time[-1])
    return (start, end)


def _load_climate(cfg: RunConfig) -> PanelDataset:
    if not cfg.input.climate:
        raise ConfigError("[input] climate: path to the climate CSV is required")
    return load_panel(cfg.input.climate, cfg.input.schema())


def _load_merged(cfg: RunConfig) -> PanelDataset:
    ds = _load_climate(cfg)
    if not cfg.input.prices:
        raise ConfigError("[input] prices: path to the price CSV is required")
    prices = load_panel(cfg.input.prices, cfg.input.schema())
    # the climate file fixes the region order, so the price file may list
    # its regions in any order without changing a result; the price series
    # still come first
    merged = merge_panels(ds, prices)
    return subset(merged, prices.variables + ds.variables)


def _all_failed(kind: str, failures: list[str]) -> EstimationError:
    """The error for a run in which every cell failed: their count and the
    first cell's message, which alone can name every series of the panel."""
    return EstimationError(f"all {len(failures)} {kind} cells failed; "
                           f"the first: {failures[0]}")


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
    files = {}
    for var, polarities in _climate_vars(cfg):
        for m in cfg.anomaly.m:
            norm, *derived = derived_names(var, m, polarities,
                                           cfg.anomaly.seasonal)
            files[f"anomaly_{var}_m{m}.csv"] = derived
            files[f"norms_audit_{var}_m{m}.csv"] = [var, norm, derived[0]]
    write_panel(ds, {out / name: series for name, series in files.items()},
                cfg.input.schema(), header_comments=_header(cfg))
    _write_run_report(cfg, "anomaly", {
        "m": ",".join(str(m) for m in cfg.anomaly.m),
        "files": len(files),
    }, files)
    print(f"anomaly: wrote {len(files)} files to {out}")


def _cmd_lp(cfg: RunConfig) -> None:
    if not cfg.lp.outcomes:
        raise ConfigError("[lp] outcomes: at least one outcome is required")
    ds = _attach_all(cfg, _load_merged(cfg), [cfg.lp.m], seasonal=True)
    shocks = cfg.lp.shock_names()
    window = _window(cfg, ds)
    out = _out_dir(cfg)

    # every shock of an outcome is estimated in one call, which fits the
    # shocks sharing a sample together; files and reports stay shock-major
    by_cell = {}
    for outcome in cfg.lp.outcomes:
        for res in estimate_irf(ds, cfg.lp.spec(outcome, window)):
            by_cell[(res.shock, outcome)] = res
    cell_failures = []
    horizon_failures = []
    written = []   # one file per estimated cell, then irf_table.csv
    table = []   # irf_table.csv rows
    units = {"horizon": "quarters",
             "estimate": "log change of outcome per unit shock",
             "se": "same as estimate", "lo": "band lower", "hi": "band upper"}
    for shock in shocks:
        for outcome in cfg.lp.outcomes:
            res = by_cell[(shock, outcome)]
            cell = f"shock={shock} outcome={outcome}"
            if not res.responses:
                cell_failures.append(f"{cell}: {res.failures[0].message}")
                continue
            horizon_failures += [f"{cell} h={f.horizon}: {f.message}"
                                 for f in res.failures]
            rows = [[r.horizon, r.estimate, r.se, r.band[0], r.band[1], r.nobs,
                     significance_stars(r.estimate, r.se)]
                    for r in res.responses]
            path = out / f"irf_{shock}__{outcome}.csv"
            _write_csv(
                path, _header(cfg, units),
                ["horizon", "estimate", "se", "lo", "hi", "nobs", "stars"],
                rows,
            )
            written.append(path.name)
            table += [[shock, outcome, h, est, se, stars]
                      for h, est, se, _, _, _, stars in rows]
    if not written:
        raise _all_failed("LP", cell_failures)
    estimated = len(written)
    # the combined table is keyed (shock, outcome, horizon)
    table.sort(key=lambda row: row[:3])
    table_path = out / "irf_table.csv"
    _write_csv(
        table_path, _header(cfg, units),
        ["shock", "outcome", "horizon", "estimate", "se", "stars"], table,
    )
    written.append(table_path.name)
    n_cells = len(shocks) * len(cfg.lp.outcomes)
    _write_run_report(cfg, "lp", {
        "cells": f"{n_cells} attempted, {estimated} estimated, "
                 f"{len(cell_failures)} failed",
        "horizon failures": len(horizon_failures),
    }, written, {"failed cells": cell_failures,
                 "failed horizons": horizon_failures})
    print(f"lp: {estimated}/{n_cells} cells estimated, "
          f"outputs in {out}")


def _longrun_label(variable: str, m: int) -> str:
    return variable.replace(f"_anom_m{m}", "")


def _longrun_text(outcome: str, tables) -> str:
    """The outcome's long-run tables, m ascending, side by side."""
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
    ds = _attach_all(cfg, _load_merged(cfg), cfg.ardl.m, seasonal=False)
    window = _window(cfg, ds)
    # one long-run table per (outcome, m) cell, m ascending within each
    # outcome; a failing cell is recorded and the rest still estimated
    tables = []
    failed = []
    for outcome in cfg.ardl.outcomes:
        for m in sorted(cfg.ardl.m):
            block = ardl.default_block(cfg.input.temperature_var,
                                       cfg.input.precipitation_var, m)
            spec = cfg.ardl.spec(outcome, block, m, window)
            try:
                tables.append(ardl.estimate_ardl(ds, spec).table)
            except ClimPanelError as exc:
                failed.append(f"{outcome}/m={m}: {type(exc).__name__}: {exc}")
    if not tables:
        raise _all_failed("ARDL", failed)
    out = _out_dir(cfg)
    written = []
    units = {"theta": "log change per unit of the block variable",
             "annualized": "theta * 2/(m+1)"}
    table_path = out / "longrun_table.csv"
    _write_csv(
        table_path, _header(cfg, units),
        ["outcome", "m", "variable", "theta", "se", "stars", "annualized",
         "phi", "phi_se", "phi_stars", "nobs"],
        [[t.outcome, t.m, _longrun_label(e.variable, t.m), e.theta, e.se,
          e.stars, e.annualized, t.phi, t.phi_se, t.phi_stars, t.nobs]
         for t in tables for e in t.effects],
    )
    written.append(table_path.name)
    for outcome in cfg.ardl.outcomes:
        own = [t for t in tables if t.outcome == outcome]
        if not own:
            continue
        path = out / f"longrun_{outcome}.txt"
        notes = [*_header(cfg, units),
                 "standard errors in parentheses; *** 1%, ** 5%, * 10%"]
        path.write_text(comment_lines(notes) + _longrun_text(outcome, own),
                        encoding="utf-8")
        written.append(path.name)
    ann_path = out / "annualized_summary.csv"
    _write_csv(
        ann_path, _header(cfg, units),
        ["outcome", "m", "variable", "theta", "annualized", "annualized_4dp"],
        [[t.outcome, t.m, _longrun_label(e.variable, t.m), e.theta,
          e.annualized, f"{e.annualized:.4f}"]
         for t in tables for e in t.effects],
    )
    written.append(ann_path.name)
    n_cells = len(cfg.ardl.outcomes) * len(cfg.ardl.m)
    _write_run_report(cfg, "ardl", {
        "cells": f"{n_cells} attempted, {len(tables)} estimated, "
                 f"{len(failed)} failed",
    }, written, {"failed cells": failed})
    print(f"ardl: {len(tables)}/{n_cells} cells estimated, "
          f"outputs in {out}")


def _cmd_stats(cfg: RunConfig) -> None:
    if cfg.input.climate and cfg.input.prices:
        ds = _load_merged(cfg)
    elif cfg.input.climate:
        ds = _load_climate(cfg)
    elif cfg.input.prices:
        ds = load_panel(cfg.input.prices, cfg.input.schema())
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
    print(f"stats: wrote {path}")


def _cmd_simulate(cfg: RunConfig) -> None:
    out = _out_dir(cfg)
    sim = cfg.simulate
    make = {"climate": climate_panel, "lp": lp_panel, "ardl": ardl_panel}
    ds = make[sim.kind](n_regions=sim.regions, n_quarters=sim.quarters,
                        start=sim.start, seed=sim.seed)
    if sim.kind == "climate":
        files = {"climate.csv": ("temperature", "precipitation"),
                 "prices.csv": PRICE_COMPONENTS}
    else:
        files = {f"{sim.kind}_panel.csv": ds.variables}
    write_panel(ds, {out / name: series for name, series in files.items()},
                header_comments=_header(cfg))
    _write_run_report(cfg, "simulate", {"kind": sim.kind, "seed": sim.seed},
                      files)
    print(f"simulate: wrote {', '.join(files)} to {out}")


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

# subcommand -> (body, help text)
_COMMANDS = {
    "anomaly": (_cmd_anomaly,
                "Compute norms, anomalies, sign splits and seasonal shocks; "
                "write the series plus a norms audit file."),
    "ardl": (_cmd_ardl,
             "Estimate ARDL long-run effects per outcome and norm window, "
             "with annualized summaries."),
    "lp": (_cmd_lp,
           "Estimate cumulative impulse responses of each outcome to each "
           "configured shock."),
    "simulate": (_cmd_simulate,
                 "Generate seeded synthetic panels (demo climate/prices, LP "
                 "DGP, ARDL DGP)."),
    "stats": (_cmd_stats,
              "Per-region summary statistics for panel variables."),
}


def _parser() -> argparse.ArgumentParser:
    # --help but no -h, and no abbreviated options: --conf is a usage
    # error, not --config
    flags = {"add_help": False, "allow_abbrev": False}
    help_flag = {"action": "help", "help": "Show this message and exit."}
    parser = argparse.ArgumentParser(
        prog="climpanel", **flags,
        description="Climate norms and anomalies, LP impulse responses, and "
                    "ARDL long-run effects for regional quarterly panels.")
    parser.add_argument("--version", action="version",
                        version=f"climpanel, version {__version__}",
                        help="Show the version and exit.")
    parser.add_argument("--help", **help_flag)
    commands = parser.add_subparsers(dest="command", metavar="COMMAND",
                                     required=True)
    for name, (_, help_text) in _COMMANDS.items():
        command = commands.add_parser(name, help=help_text,
                                      description=help_text, **flags)
        command.add_argument("--config", metavar="PATH",
                             help="INI config file.")
        command.add_argument("--out", metavar="DIR",
                             help="Override [output] dir.")
        command.add_argument("--m", metavar="LIST",
                             help="Override norm windows, e.g. 20,30,40 "
                                  "(lp uses the first entry).")
        command.add_argument("--seed", type=int, metavar="N",
                             help="Override [simulate] seed.")
        command.add_argument("--help", **help_flag)
    return parser


# error class -> (stderr prefix, exit code); the first match wins
_EXITS = (
    (ConfigError, "config error", 1),
    (DataValidationError, "data error", 2),
    (EstimationError, "estimation error", 3),
    (ClimPanelError, "error", 1),
)


def main(argv=None) -> int:
    """Entry point mapping toolkit errors to exit codes."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # --help and --version exit 0; argparse exits 2 on a usage error,
        # which is 1 here like every other usage/config error
        return 1 if exc.code else 0
    body, _ = _COMMANDS[args.command]
    try:
        body(load_config(args.config, args.out, args.m, args.seed))
    except ClimPanelError as exc:
        prefix, code = next((prefix, code) for kind, prefix, code in _EXITS
                            if isinstance(exc, kind))
        # one stderr line per failure, also for a multi-line message such
        # as configparser's
        print(f"{prefix}: " + " ".join(str(exc).splitlines()),
              file=sys.stderr)
        return code
    return 0
