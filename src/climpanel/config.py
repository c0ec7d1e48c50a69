"""Run configuration: the INI file's schema, its value parsers and checks.

Configuration is an INI-style file with flat key=value sections; unknown
sections or keys are rejected. load_config applies the command line's
overrides and returns a RunConfig, which carries a hash of the resolved
settings that every output file names. The command line imports this
module only once argparse has picked a command, so --version, --help and
a usage error load none of it.
"""
from __future__ import annotations

import configparser
import hashlib
import json
import os
import re

from ._record import Record
from .errors import ConfigError
from .specs import (
    NORM_MODES,
    ARDLSpec,
    HACSpec,
    LPSpec,
    PanelSchema,
    QuarterIndex,
    check_choice,
    check_count,
    check_fixed_effects,
    check_items,
    check_once,
    derived_names,
)


def _require(ok, where: str, rule: str) -> None:
    if not ok:
        raise ConfigError(f"{where} {rule}")


def _checked(where: str, fn, *args):
    """fn(*args), its ValueError (a SpecError is one) a ConfigError prefixed
    by where, which ends in a colon when the message does not start with
    the setting's name."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ConfigError(f"{where} {exc}") from None


def _check_windows(where: str, ms: tuple[int, ...]) -> None:
    _checked(where, check_items, "m", ms,
             lambda m: check_count("each m", m, 1))


def _check_path(where: str, path: str | None) -> None:
    # the OS takes no NUL in a file name; open() would raise a bare ValueError
    _require(path is None or "\0" not in path, where,
             "must not contain a NUL byte")


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
        start, end = (None if label is None else
                      _checked(f"[input] {key}:", QuarterIndex.parse, label)
                      for key, label in (("start", self.start),
                                         ("end", self.end)))
        _require(None in (start, end) or start <= end, "[input] start",
                 f"must not be after [input] end, got {self.start} > "
                 f"{self.end}")
        _checked("[input] region_col, year_col and quarter_col:", self.schema)
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
        _check_windows("[anomaly]", self.m)
        _checked("[anomaly]", check_choice, "mode", self.mode, NORM_MODES)


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
        _checked("[lp]", check_count, "m", self.m, 1)
        try:
            self.shock_names()
        except (KeyError, IndexError, ValueError, AttributeError, TypeError):
            raise ConfigError(f"[lp] shocks: bad placeholder in {self.shocks} "
                              "(only {m} is substituted)") from None
        _checked("[lp]", check_fixed_effects, self.fixed_effects)
        _checked("[lp]", self.spec, "")

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
    p: int = ARDLSpec.p
    se: str = "classical"
    bandwidth: int | None = None
    small_sample: bool = HACSpec.small_sample

    def __post_init__(self):
        _check_windows("[ardl]", self.m)
        _checked("[ardl]", check_choice, "se", self.se,
                 ("classical", "driscoll-kraay"))
        # the outcome and block are each cell's; any one stands in here
        _checked("[ardl]", self.spec, "", ("",), self.m[0])

    def spec(self, outcome: str, block, m: int, sample=None) -> ARDLSpec:
        """One cell's ARDLSpec; classical se also checks the bandwidth."""
        hac = HACSpec(self.bandwidth, self.small_sample)
        return ARDLSpec(outcome, block, self.p, m, sample=sample,
                        hac=hac if self.se == "driscoll-kraay" else None)


class SimulateConfig(Record):
    kind: str = "climate"
    seed: int = 20240101
    regions: int = 7
    quarters: int = 252
    start: str = "1962Q1"

    def __post_init__(self):
        _checked("[simulate]", check_choice, "kind", self.kind,
                 ("climate", "lp", "ardl"))
        for key, low in (("seed", 0), ("regions", 1), ("quarters", 1)):
            _checked("[simulate]", check_count, key, getattr(self, key), low)
        _checked("[simulate] start:", QuarterIndex.parse, self.start)


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


def _parse_list(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in text.split(",") if s.strip())


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
        values[key] = _checked(f"[{name}] {key}:", parse, text)
        # every list names each entry once; ints compare as ints, 30 == 030
        if types[key].startswith("tuple"):
            _checked(f"[{name}]", check_once, key, values[key])
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
    # no header line spells "\n": [DEFAULT] is an ordinary, unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    if path is not None:
        try:
            read = parser.read(path, encoding="utf-8-sig")
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
        ms = _checked("--m:", _parse_int_list, m_list)
        # a bad list is named by the first section it lands in, [anomaly]
        _check_windows("--m: [anomaly]", ms)
        raw["anomaly"]["m"] = raw["ardl"]["m"] = ms
        raw["lp"]["m"] = ms[0]
    _check_path("--out", out_dir)
    _require(out_dir != "", "--out",
             "must not be empty (. is the working directory)")
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
    if out_dir is None:
        _require(output.dir, "[output] dir",
                 "must not be empty (. is the config file's directory)")
        out_dir = os.path.join(base, output.dir)
    return RunConfig(**sections, hash=digest, out_dir=out_dir)


# [input] path key -> what its file holds
_INPUTS = {"climate": "climate", "prices": "price"}


def _inputs(cfg: RunConfig, command: str) -> list[str]:
    """The [input] keys of the files command reads (stats: those set, at
    least one), once the settings it needs beyond its sections' own checks
    are there: lp's or ardl's outcomes first, then each path. main makes
    these checks before numpy loads."""
    inp = cfg.input
    if command in ("lp", "ardl"):
        _require(getattr(cfg, command).outcomes, f"[{command}] outcomes:",
                 "at least one outcome is required")
        keys = list(_INPUTS)
    elif command == "stats":
        keys = [key for key in _INPUTS if getattr(inp, key)]
        _require(keys, "[input] climate or prices", "path is required")
    else:
        keys = ["climate"] if command == "anomaly" else []
    for key in keys:
        _require(getattr(inp, key), f"[input] {key}:",
                 f"path to the {_INPUTS[key]} CSV is required")
    return keys
