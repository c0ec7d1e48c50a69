"""Command bodies: anomaly, lp, ardl, stats and simulate. __main__ parses
the command line and imports this module once a command's configuration
is checked; importing it loads numpy and the panel layer.

Identical config plus identical inputs produce byte-identical outputs:
every emitted file carries the toolkit version and a hash of the resolved
configuration, never a timestamp. Each command writes its files through a
_Run and returns its summary line, report facts and failure lists;
__main__.run writes the run report, then prints the summary. The bodies
call the panel readers and writers, attach_anomaly_features and
estimate_irf through this module's globals, where the benchmark's tracer
wraps them.
"""
from __future__ import annotations

import os
from pathlib import Path

from . import __version__
from .climate import attach_anomaly_features
from .config import RunConfig, _inputs
from .dataset import (
    PanelDataset,
    comment_lines,
    load_panel,
    merge_panels,
    summary_stats,
    write_csv as _write_csv,
    write_panel,
)
from .errors import (ClimPanelError, ConfigError, EstimationError,
                     PanelIntegrityError, describe)
from .specs import derived_names


def main(argv=None) -> int:
    """__main__.run, for callers that run a command in process. It is
    imported here, not at the top: under python -m climpanel, a top-level
    import would compile __main__.py a second time as climpanel.__main__."""
    from .__main__ import run
    return run(argv)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _header(cfg: RunConfig, units: dict[str, str] | None = None) -> list[str]:
    lines = [f"climpanel {__version__}", f"config sha256 {cfg.hash}"]
    if units:
        lines.append("units: " + "; ".join(f"{k}={v}" for k, v in units.items()))
    return lines


class _Run:
    """A command's output directory and the files it has written there, in
    order; each write call takes its paths from _path, then writes."""

    def __init__(self, cfg: RunConfig):
        self.cfg, self.out, self.written = cfg, Path(cfg.out_dir), []

    def _path(self, name: str) -> Path:
        """out/name, recorded as written; the output directory is made at
        the run's first file. A series name may hold a path separator, and
        two series names may join into one file name."""
        path = self.out / name
        if {"/", os.sep, os.altsep, "\0"} & set(name):
            raise ClimPanelError(f"{path}: cannot write: not a plain file name")
        if name in self.written:
            raise ClimPanelError(f"{path}: cannot write: this run already "
                                 "wrote a file of that name")
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory "
                              f"{str(self.out)!r}: {exc.strerror}") from None
        self.written.append(name)
        return path

    def csv(self, name: str, units: dict, header, rows) -> None:
        _write_csv(self._path(name), _header(self.cfg, units), header, rows)

    def panels(self, ds: PanelDataset, files: dict, schema=None) -> None:
        """files maps each file name to its series; one write_panel call."""
        write_panel(ds, {self._path(name): cols for name, cols in files.items()},
                    schema, header_comments=_header(self.cfg))

    def text(self, name: str, text: str) -> None:
        # no newline translation, as in write_csv: \n on every platform
        self._path(name).write_text(text, encoding="utf-8", newline="")

    def report(self, command: str, facts: dict, failures: dict) -> None:
        """run_report_<command>.txt: one 'name: value' line per fact (after
        the command, version and config hash), the files written, then each
        nonempty failure list under its heading. A 'files' fact (the file
        count) heads the file list in place of the bare 'files:' line."""
        facts = {"command": command, "climpanel": __version__,
                 "config": self.cfg.hash, **facts}
        lines = [f"{name}: {value}" for name, value in facts.items()]
        if "files" not in facts:
            lines.append("files:")
        lines += [f"  {name}" for name in self.written]
        for heading, items in failures.items():
            if items:
                lines += [f"{heading}:", *(f"  {item}" for item in items)]
        self.text(f"run_report_{command}.txt",
                  "".join(line + "\n" for line in lines))


def _cells(command: str, run: _Run, estimated: int, failed: list) -> tuple:
    """lp's and ardl's summary line and 'cells' fact. If every cell failed,
    an EstimationError with their count and only the first cell's message."""
    n_cells = estimated + len(failed)
    if not estimated:
        raise EstimationError(f"all {n_cells} {command.upper()} cells "
                              f"failed; the first: {failed[0]}")
    return (f"{command}: {estimated}/{n_cells} cells estimated, "
            f"outputs in {run.out}",
            {"cells": f"{n_cells} attempted, {estimated} estimated, "
                      f"{len(failed)} failed"})


def _by_name(ds: PanelDataset) -> PanelDataset:
    """ds with its regions in name order."""
    rows = sorted(range(ds.n_regions), key=ds.regions.__getitem__)
    return PanelDataset(sorted(ds.regions), ds.time,
                        {k: v[rows] for k, v in ds.series.items()}, ds.units)


def _load(cfg: RunConfig, command: str) -> PanelDataset:
    """The panel of the [input] files command reads, its regions in name
    order, so that no output depends on the order of a file's rows. With
    both files, the climate series follow the price series; files holding
    other regions raise PanelIntegrityError naming both."""
    inp, schema = cfg.input, cfg.input.schema()
    panels = [load_panel(getattr(inp, key), schema)
              for key in _inputs(cfg, command)]
    first = _by_name(panels[-1])   # prices, when both files are read
    names = [sorted(ds.regions) for ds in panels]
    if names[0] != names[-1]:
        raise PanelIntegrityError(f"region lists differ: {inp.climate} has "
                                  f"{names[0]}, {inp.prices} has {names[-1]}")
    return merge_panels(first, panels[0]) if len(panels) == 2 else first


def _attach_all(cfg: RunConfig, ds: PanelDataset, ms, seasonal: bool,
                files: dict | None = None) -> PanelDataset:
    """ds with both climate variables' anomaly series for each window in
    ms; files, if given, gets each (variable, window)'s anomaly and norms
    audit file names mapped to their series."""
    for var, polarities in ((cfg.input.temperature_var, ("hot", "cold")),
                            (cfg.input.precipitation_var, ("wet", "dry"))):
        for m in ms:
            ds = attach_anomaly_features(
                ds, var, m, cfg.anomaly.mode, polarities, seasonal,
                sign_conditioned=cfg.anomaly.sign_conditioned)
            if files is not None:
                norm, *derived = derived_names(var, m, polarities, seasonal)
                files[f"anomaly_{var}_m{m}.csv"] = derived
                files[f"norms_audit_{var}_m{m}.csv"] = [var, norm, derived[0]]
    return ds


def _estimation_panel(cfg: RunConfig, section: str, ms, seasonal: bool):
    """lp's or ardl's merged panel, with the anomaly series for the windows
    ms, and its [input] sample window, the panel's ends for unset bounds."""
    ds = _attach_all(cfg, _load(cfg, section), ms, seasonal)
    return ds, (cfg.input.start or str(ds.time[0]),
                cfg.input.end or str(ds.time[-1]))


# ---------------------------------------------------------------------------
# Command bodies: each reads its inputs, writes its files through run and
# returns its summary line, its run report facts and its failure lists.
# Each imports the estimator or generator it runs, so a command loads none
# of the others' modules; lp's is estimate_irf, a name the tracer wraps.
# ---------------------------------------------------------------------------

def estimate_irf(ds: PanelDataset, spec) -> tuple:
    from .localproj import estimate_irf
    return estimate_irf(ds, spec)


def _cmd_anomaly(cfg: RunConfig, run: _Run) -> tuple:
    files = {}
    ds = _attach_all(cfg, _load(cfg, "anomaly"), cfg.anomaly.m,
                     cfg.anomaly.seasonal, files)
    run.panels(ds, files, cfg.input.schema())
    return (f"anomaly: wrote {len(files)} files to {run.out}",
            {"m": ",".join(str(m) for m in cfg.anomaly.m),
             "files": len(files)}, {})


def _cmd_lp(cfg: RunConfig, run: _Run) -> tuple:
    from .regress import significance_stars
    ds, window = _estimation_panel(cfg, "lp", [cfg.lp.m], seasonal=True)
    # every shock of an outcome is estimated in one call, which fits the
    # shocks sharing a sample together; files and reports stay shock-major
    by_cell = {}
    for outcome in cfg.lp.outcomes:
        for res in estimate_irf(ds, cfg.lp.spec(outcome, window)):
            by_cell[(res.shock, outcome)] = res
    cell_failures, horizon_failures = [], []
    table = []   # irf_table.csv rows
    units = {"horizon": "quarters",
             "estimate": "log change of outcome per unit shock",
             "se": "same as estimate", "lo": "band lower", "hi": "band upper"}
    for shock in cfg.lp.shock_names():
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
            run.csv(f"irf_{shock}__{outcome}.csv", units,
                    ["horizon", "estimate", "se", "lo", "hi", "nobs", "stars"],
                    rows)
            table += [[shock, outcome, h, est, se, stars]
                      for h, est, se, _, _, _, stars in rows]
    summary, facts = _cells("lp", run, len(run.written), cell_failures)
    # the combined table is keyed (shock, outcome, horizon)
    table.sort(key=lambda row: row[:3])
    run.csv("irf_table.csv", units,
            ["shock", "outcome", "horizon", "estimate", "se", "stars"], table)
    return (summary, {**facts, "horizon failures": len(horizon_failures)},
            {"failed cells": cell_failures,
             "failed horizons": horizon_failures})


def _longrun_label(variable: str, m: int) -> str:
    head, _, tail = variable.rpartition(derived_names("", m, seasonal=False)[1])
    return head + tail


def _longrun_text(outcome: str, tables) -> str:
    """The outcome's long-run tables, m ascending, side by side, after a
    label column as wide as its longest label, at least 24."""
    width = 16
    head = f"Long-run effects: {outcome}"
    cols = "".join(f"{f'{t.m} yr MA':>{width}}" for t in tables)
    # each estimate row: the value with its stars, then (se) beneath it
    rows = [(f"theta[{_longrun_label(e.variable, tables[0].m)}]",
             [(t.effects[i].theta, t.effects[i].stars, t.effects[i].se)
              for t in tables]) for i, e in enumerate(tables[0].effects)]
    rows.append(("phi", [(t.phi, t.phi_stars, t.phi_se) for t in tables]))
    pad = max(24, *(len(label) for label, _ in rows))
    lines = [head, "=" * max(len(head), 24), f"{'':{pad}}{cols}"]
    for label, cells in rows:
        lines.append(f"{label:{pad}}" + "".join(
            f"{f'{v:.4f} {stars}'.rstrip():>{width}}" for v, stars, _ in cells))
        lines.append(f"{'':{pad}}" + "".join(f"{f'({se:.4f})':>{width}}"
                                             for *_, se in cells))
    lines.append(f"{'nobs':{pad}}"
                 + "".join(f"{t.nobs:>{width}}" for t in tables))
    return "\n".join(lines) + "\n"


def _cmd_ardl(cfg: RunConfig, run: _Run) -> tuple:
    from . import ardl
    ds, window = _estimation_panel(cfg, "ardl", cfg.ardl.m, seasonal=False)
    # one long-run table per (outcome, m) cell, m ascending within each
    # outcome; a failing cell is recorded and the rest still estimated
    tables, failed = [], []
    for outcome in cfg.ardl.outcomes:
        for m in sorted(cfg.ardl.m):
            block = ardl.default_block(cfg.input.temperature_var,
                                       cfg.input.precipitation_var, m)
            spec = cfg.ardl.spec(outcome, block, m, window)
            try:
                tables.append(ardl.estimate_ardl(ds, spec).table)
            except ClimPanelError as exc:
                failed.append(f"{outcome}/m={m}: {describe(exc)}")
    summary, facts = _cells("ardl", run, len(tables), failed)
    units = {"theta": "log change per unit of the block variable",
             "annualized": "theta * 2/(m+1)"}
    run.csv("longrun_table.csv", units,
            ["outcome", "m", "variable", "theta", "se", "stars", "annualized",
             "phi", "phi_se", "phi_stars", "nobs"],
            [[t.outcome, t.m, _longrun_label(e.variable, t.m), e.theta, e.se,
              e.stars, e.annualized, t.phi, t.phi_se, t.phi_stars, t.nobs]
             for t in tables for e in t.effects])
    notes = [*_header(cfg, units),
             "standard errors in parentheses; *** 1%, ** 5%, * 10%"]
    for outcome in cfg.ardl.outcomes:
        own = [t for t in tables if t.outcome == outcome]
        if own:
            run.text(f"longrun_{outcome}.txt",
                     comment_lines(notes) + _longrun_text(outcome, own))
    run.csv("annualized_summary.csv", units,
            ["outcome", "m", "variable", "theta", "annualized",
             "annualized_4dp"],
            [[t.outcome, t.m, _longrun_label(e.variable, t.m), e.theta,
              e.annualized, f"{e.annualized:.4f}"]
             for t in tables for e in t.effects])
    return summary, facts, {"failed cells": failed}


def _cmd_stats(cfg: RunConfig, run: _Run) -> tuple:
    ds = _load(cfg, "stats")
    variables = cfg.stats.variables or ds.variables
    rows = [[var, s.region, s.min, s.q1, s.median, s.q3, s.max, s.mean, s.sd]
            for var in variables for s in summary_stats(ds, var)]
    run.csv("summary_stats.csv", {v: ds.unit(v) or "unknown" for v in variables},
            ["variable", "region", "min", "q1", "median", "q3", "max", "mean",
             "sd"], rows)
    return (f"stats: wrote {run.out / 'summary_stats.csv'}",
            {"variables": len(variables)}, {})


def _cmd_simulate(cfg: RunConfig, run: _Run) -> tuple:
    from .simulate import PRICE_COMPONENTS, ardl_panel, climate_panel, lp_panel
    sim = cfg.simulate
    make = {"climate": climate_panel, "lp": lp_panel, "ardl": ardl_panel}
    ds = make[sim.kind](n_regions=sim.regions, n_quarters=sim.quarters,
                        start=sim.start, seed=sim.seed)
    if sim.kind == "climate":
        files = {"climate.csv": ("temperature", "precipitation"),
                 "prices.csv": PRICE_COMPONENTS}
    else:
        files = {f"{sim.kind}_panel.csv": ds.variables}
    run.panels(ds, files)
    return (f"simulate: wrote {', '.join(files)} to {run.out}",
            {"kind": sim.kind, "seed": sim.seed}, {})
