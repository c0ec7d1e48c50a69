"""Outside-in span tracing of climpanel's layers.

The tracer wraps public functions by replacing the module attributes their
callers resolve at call time (``localproj.ols``, not ``regress.ols``, for
the LP fits), so nothing in the program changes. Spans are kept in memory
as (name, start, end, parent, count) records and written out once.
"""
from __future__ import annotations

import functools
import os
import statistics
import time
from dataclasses import dataclass

# Unit and the end-to-end metric (and workload) each per-layer metric
# should move; printed with the traced results.
PER_LAYER = {
    "cli.import_s": ("s", "setup_s and every *_s; largest share on demo"),
    "dataset.load_panel_s": ("s", "stats_s, ardl_s, lp_s on ragged"),
    "dataset.load_panel_calls": ("count", "work count: panels read"),
    "dataset.bytes_read": ("bytes", "work count: input bytes parsed"),
    "dataset.write_panel_s": ("s", "anomaly_s, simulate_s on ragged"),
    "dataset.cells_written": ("count", "work count: panel cells written"),
    "cli.write_csv_s": ("s", "part of lp_s, ardl_s; should not move"),
    "climate.attach_s": ("s", "part of anomaly_s, lp_s, ardl_s; stays small"),
    "climate.attach_calls": ("count", "work count: anomaly attachments"),
    "localproj.design_s": ("s", "lp_s on ragged"),
    "ardl.design_s": ("s", "ardl_s on ragged"),
    "regress.absorb_s": ("s", "lp_s on ragged, then demo"),
    "regress.absorb_calls": ("count", "work count: fixed-effect absorptions"),
    "regress.solve_s": ("s", "lp_s and cpu_s on ragged"),
    "regress.dk_s": ("s", "lp_s everywhere"),
    "localproj.self_s": ("s", "lp_s (bands and bookkeeping)"),
    "regress.regressions": ("count", "work count: fits"),
    "regress.design_cells": ("count", "work count: sum of nobs*k over fits"),
    "localproj.regression_p50_ms": ("ms", "lp_s"),
    "localproj.regression_p90_ms": ("ms", "lp_s"),
    "localproj.horizons_failed": ("count", "failures inside lp"),
    "ardl.cells_failed": ("count", "failures inside ardl"),
    "trace.overhead_s": ("s", "none: traced minus untraced wall time"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    count: int = 0


class Tracer:
    """Records nested spans around wrapped calls on one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, count=None):
        """fn wrapped so that each call records a span; count(args, kwargs)
        gives the span's work count."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            rec = Span(name, time.perf_counter(), 0.0, parent,
                       count(args, kwargs) if count else 0)
            self.spans.append(rec)
            self._stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                rec.end = time.perf_counter()
        return traced

    def patch(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.span(name, original, count))

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def install(tracer: Tracer) -> None:
    """Patch every layer boundary of the CLI pipeline."""
    from climpanel import ardl, cli, localproj, regress

    def file_bytes(args, kwargs):
        return os.path.getsize(args[0])

    def panel_cells(args, kwargs):
        ds = args[0]
        return ds.n_regions * ds.n_quarters * len(ds.variables)

    def design_cells(args, kwargs):
        return args[0].X.size

    tracer.patch(cli, "load_panel", "dataset.load_panel", file_bytes)
    tracer.patch(cli, "write_panel", "dataset.write_panel", panel_cells)
    tracer.patch(cli, "_write_csv", "cli.write_csv")
    tracer.patch(cli, "attach_anomaly_features", "climate.attach")
    tracer.patch(cli, "estimate_irf", "localproj.estimate_irf")
    tracer.patch(localproj, "build_lp_design", "localproj.design")
    tracer.patch(ardl, "estimate_ardl", "ardl.estimate_ardl")
    tracer.patch(ardl, "build_ardl_design", "ardl.design")
    # ols resolves within_transform and with_driscoll_kraay resolves
    # vcov_driscoll_kraay through the regress module
    tracer.patch(localproj, "ols", "regress.ols", design_cells)
    tracer.patch(ardl, "ols", "regress.ols", design_cells)
    tracer.patch(regress, "within_transform", "regress.absorb")
    tracer.patch(regress, "vcov_driscoll_kraay", "regress.dk")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def horizon_latencies(spans: list[Span]) -> list[float]:
    """Design + fit + DK time of each LP horizon. A horizon starts with a
    design span directly under estimate_irf; the fit and DK spans that
    follow it under the same parent belong to it."""
    irf = {i for i, s in enumerate(spans) if s.name == "localproj.estimate_irf"}
    per_horizon: list[float] = []
    for s in spans:
        if s.parent not in irf:
            continue
        if s.name == "localproj.design":
            per_horizon.append(0.0)
        if s.name in ("localproj.design", "regress.ols", "regress.dk") \
                and per_horizon:
            per_horizon[-1] += s.end - s.start
    return per_horizon


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals, counts and percentiles from one traced pass."""
    selfs = self_times(spans)

    def total(name):
        return sum(s.end - s.start for s in spans if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def counted(name):
        return sum(s.count for s in spans if s.name == name)

    def self_total(name):
        return sum(t for s, t in zip(spans, selfs) if s.name == name)

    deciles = statistics.quantiles(horizon_latencies(spans) or [0.0, 0.0],
                                   n=10)
    return {
        "dataset.load_panel_s": total("dataset.load_panel"),
        "dataset.load_panel_calls": calls("dataset.load_panel"),
        "dataset.bytes_read": counted("dataset.load_panel"),
        "dataset.write_panel_s": total("dataset.write_panel"),
        "dataset.cells_written": counted("dataset.write_panel"),
        "cli.write_csv_s": total("cli.write_csv"),
        "climate.attach_s": total("climate.attach"),
        "climate.attach_calls": calls("climate.attach"),
        "localproj.design_s": total("localproj.design"),
        "ardl.design_s": total("ardl.design"),
        "regress.absorb_s": total("regress.absorb"),
        "regress.absorb_calls": calls("regress.absorb"),
        "regress.solve_s": self_total("regress.ols"),
        "regress.dk_s": total("regress.dk"),
        "localproj.self_s": self_total("localproj.estimate_irf"),
        "regress.regressions": calls("regress.ols"),
        "regress.design_cells": counted("regress.ols"),
        "localproj.regression_p50_ms": 1e3 * deciles[4],
        "localproj.regression_p90_ms": 1e3 * deciles[8],
    }
