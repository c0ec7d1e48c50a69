"""Balanced regional quarterly panels: ingestion, validation, log and lag
arithmetic, summaries.

A panel is a set of named region-by-quarter matrices sharing one region list
and one contiguous quarterly index. Missing cells are NaN; estimators drop
incomplete rows listwise and never reindex.
"""
from __future__ import annotations

import csv
import itertools
import math
import re
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import (
    EmptyPanelError,
    EmptySummaryError,
    GapError,
    PanelIntegrityError,
    SchemaError,
    SpecError,
    TransformDomainError,
    VariableLookupError,
)

_QUARTER_RE = re.compile(r"^(\d{4})Q([1-4])$")


def _quarter_code(year: int, quarter: int) -> int:
    """A quarter's position on one integer axis, year * 4 + quarter - 1."""
    if quarter not in (1, 2, 3, 4):
        raise SpecError(f"quarter must be in 1..4, got {quarter!r}")
    return year * 4 + quarter - 1


@dataclass(frozen=True, order=True)
class QuarterIndex:
    """A calendar quarter, ordered lexicographically on (year, quarter)."""

    year: int
    quarter: int

    def __post_init__(self):
        _quarter_code(self.year, self.quarter)

    def __str__(self) -> str:
        return f"{self.year}Q{self.quarter}"

    @classmethod
    def parse(cls, text: str | QuarterIndex) -> QuarterIndex:
        """Parse '2002Q1' style labels; QuarterIndex passes through."""
        if isinstance(text, QuarterIndex):
            return text
        m = _QUARTER_RE.match(str(text).strip().upper())
        if m is None:
            raise SpecError(f"cannot parse quarter label {text!r} (want e.g. 2002Q1)")
        return cls(int(m.group(1)), int(m.group(2)))

    def offset(self, n: int) -> QuarterIndex:
        """The quarter n steps ahead (negative n steps back)."""
        pos = self.year * 4 + (self.quarter - 1) + n
        return QuarterIndex(pos // 4, pos % 4 + 1)

    def next(self) -> QuarterIndex:
        return self.offset(1)

    def __sub__(self, other: QuarterIndex) -> int:
        """Signed distance in quarters."""
        return (self.year - other.year) * 4 + (self.quarter - other.quarter)


def quarter_range(start: QuarterIndex, end: QuarterIndex) -> tuple[QuarterIndex, ...]:
    """Inclusive contiguous range of quarters."""
    n = end - start
    if n < 0:
        raise SpecError(f"empty quarter range {start}..{end}")
    return tuple(start.offset(i) for i in range(n + 1))


@dataclass(frozen=True)
class PanelSchema:
    """Column names for panel CSV files, and the token that marks an
    explicitly missing cell (default: an empty cell). Every column that is
    not region, year or quarter is a value column."""

    region: str = "region"
    year: str = "year"
    quarter: str = "quarter"
    missing: str = ""


def _frozen(arr) -> bool:
    """True for a float array that nothing can write through: it and every
    array along its .base chain are read-only, and the chain ends in an
    array that owns its memory rather than in a foreign buffer."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == float):
        return False
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


class PanelDataset:
    """Immutable balanced panel of named region-by-quarter series.

    Every series is a (n_regions, n_quarters) float matrix with NaN for
    missing cells. The time index is contiguous and strictly increasing.
    All operations return new datasets; matrices are frozen read-only. A
    matrix that is already frozen all the way down is shared, not copied,
    so appending series costs nothing per series already held.
    """

    __slots__ = ("regions", "time", "series", "units")

    def __init__(self, regions, time, series, units=None):
        regions = tuple(str(r) for r in regions)
        time = tuple(time)
        if not regions:
            raise EmptyPanelError("panel has no regions")
        if not time:
            raise EmptyPanelError("panel has no quarters")
        if len(set(regions)) != len(regions):
            raise PanelIntegrityError("region names must be unique")
        for prev, cur in zip(time, time[1:]):
            if cur - prev != 1:
                raise GapError([("<all>", str(prev.next()))])
        frozen = {}
        for name, mat in series.items():
            arr = mat if _frozen(mat) else np.array(mat, dtype=float)
            if arr.shape != (len(regions), len(time)):
                raise PanelIntegrityError(
                    f"series {name!r} has shape {arr.shape}, "
                    f"expected {(len(regions), len(time))}"
                )
            arr.flags.writeable = False
            frozen[str(name)] = arr
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "series", frozen)
        object.__setattr__(self, "units", dict(units or {}))

    def __setattr__(self, name, value):
        raise AttributeError("PanelDataset is immutable")

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    @property
    def n_quarters(self) -> int:
        return len(self.time)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(self.series)

    def values(self, name: str) -> np.ndarray:
        try:
            return self.series[name]
        except KeyError:
            raise VariableLookupError(
                f"unknown variable {name!r}; have {sorted(self.series)}"
            ) from None

    def unit(self, name: str) -> str:
        return self.units.get(name, "")

    def with_series(self, name: str, matrix, unit: str = "") -> PanelDataset:
        """Return a new dataset with one series appended (or replaced)."""
        series = dict(self.series)
        series[name] = matrix
        units = dict(self.units)
        if unit:
            units[name] = unit
        return PanelDataset(self.regions, self.time, series, units)

    def equals(self, other: PanelDataset) -> bool:
        """Structural equality, bitwise on values (NaN == NaN)."""
        if self.regions != other.regions or self.time != other.time:
            return False
        if set(self.series) != set(other.series) or self.units != other.units:
            return False
        return all(
            np.array_equal(self.series[k], other.series[k], equal_nan=True)
            for k in self.series
        )

    def __repr__(self) -> str:
        return (f"PanelDataset({self.n_regions} regions x {self.n_quarters} "
                f"quarters, {len(self.series)} series, "
                f"{self.time[0]}..{self.time[-1]})")


def checked_log(ds: PanelDataset, name: str) -> np.ndarray:
    """Elementwise log of a series, rejecting non-positive cells."""
    mat = ds.values(name)
    bad = (mat <= 0) & np.isfinite(mat)
    if bad.any():
        i, t = np.argwhere(bad)[0]
        raise TransformDomainError(
            f"log requires strictly positive values: {name!r} at "
            f"({ds.regions[i]}, {ds.time[t]}) is {mat[i, t]!r}"
        )
    with np.errstate(invalid="ignore"):
        return np.log(mat)


def shift(mat: np.ndarray, k: int) -> np.ndarray:
    """Lag a region-by-quarter matrix by k quarters: out[:, t] = mat[:, t - k],
    NaN where t - k falls outside the panel. A negative k is a lead."""
    T = mat.shape[1]
    out = np.full(mat.shape, np.nan)
    if abs(k) < T:
        out[:, max(k, 0):T + min(k, 0)] = mat[:, max(-k, 0):T - max(k, 0)]
    return out


def subset(
    ds: PanelDataset,
    variables=None,
    start: QuarterIndex | str | None = None,
    end: QuarterIndex | str | None = None,
) -> PanelDataset:
    """Restrict to named variables and an inclusive quarter window."""
    names = tuple(variables) if variables is not None else ds.variables
    for name in names:
        ds.values(name)  # raises VariableLookupError
    lo = QuarterIndex.parse(start) if start is not None else ds.time[0]
    hi = QuarterIndex.parse(end) if end is not None else ds.time[-1]
    lo = max(lo, ds.time[0])
    hi = min(hi, ds.time[-1])
    if hi - lo < 0:
        raise EmptyPanelError(f"window {lo}..{hi} contains no quarters")
    a = lo - ds.time[0]
    b = hi - ds.time[0] + 1
    series = {name: ds.series[name][:, a:b] for name in names}
    units = {k: v for k, v in ds.units.items() if k in series}
    return PanelDataset(ds.regions, ds.time[a:b], series, units)


@dataclass(frozen=True)
class RegionSummary:
    region: str
    min: float
    q1: float
    median: float
    q3: float
    max: float
    mean: float
    sd: float


def summary_stats(ds: PanelDataset, var: str) -> tuple[RegionSummary, ...]:
    """Per-region five-number summary plus mean and sample sd.

    Quantiles use type-7 linear interpolation so emitted summary files are
    reproducible bit for bit.
    """
    mat = ds.values(var)
    rows = []
    for i, region in enumerate(ds.regions):
        v = mat[i][np.isfinite(mat[i])]
        if v.size == 0:
            raise EmptySummaryError(f"{var!r} has no observations for region "
                                    f"{region!r}")
        q1, med, q3 = np.quantile(v, [0.25, 0.5, 0.75], method="linear")
        sd = float(np.std(v, ddof=1)) if v.size > 1 else math.nan
        rows.append(RegionSummary(
            region=region,
            min=float(v.min()), q1=float(q1), median=float(med),
            q3=float(q3), max=float(v.max()), mean=float(v.mean()), sd=sd,
        ))
    return tuple(rows)


# ---------------------------------------------------------------------------
# CSV ingestion and emission
# ---------------------------------------------------------------------------

_UNIT_COMMENT_RE = re.compile(r"^#\s*unit\s+(\S+)\s*=\s*(.*)$")


def comment_lines(comments) -> str:
    """The '# ' lines that head every output file, one per comment."""
    return "".join(f"# {c}\n" for c in comments)


def _cells(row, missing: str) -> list:
    """Output cells: NaN of any payload is ``missing``, a float its shortest repr."""
    return [missing if v != v else repr(v) if isinstance(v, float) else v for v in row]


def write_csv(path, comments, header, rows, missing: str = "") -> None:
    """Write '# ' comment lines, a header row and the rows, cells by _cells."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(comment_lines(comments))
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(_cells(row, missing) for row in rows)


def _holes(names, ri, codes, lo, hi):
    """Yield (region, quarter label) for each quarter in lo..hi that a
    region has no row for: regions in order, quarters ascending."""
    order = np.lexsort((codes, ri))
    ri, codes = ri[order], codes[order]
    starts = np.searchsorted(ri, np.arange(len(names) + 1))
    for i, name in enumerate(names):
        bounds = np.concatenate([[lo - 1], codes[starts[i]:starts[i + 1]],
                                 [hi + 1]])
        for j in np.flatnonzero(np.diff(bounds) > 1):
            for c in range(int(bounds[j]) + 1, int(bounds[j + 1])):
                yield name, str(QuarterIndex(c // 4, c % 4 + 1))


def load_panel(path, schema: PanelSchema | None = None) -> PanelDataset:
    """Load a balanced panel from CSV.

    Expects a header row with region, year and quarter columns plus one or
    more value columns, each named once; '#'-prefixed lines are comments
    ('# unit var = u' comments populate units). Identical duplicate rows are
    dropped; conflicting duplicates raise PanelIntegrityError; a missing
    (region, quarter) row raises GapError naming the holes (the first
    max(rows read, 1000) of them) and counting them all.
    """
    schema = schema or PanelSchema()
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc.reason}") from None
    units = {m.group(1): m.group(2).strip()
             for m in map(_UNIT_COMMENT_RE.match, lines) if m}
    # (file line number, text) of each data line, header first
    data = [(n, line) for n, line in enumerate(lines, start=1)
            if line.strip() and not line.startswith("#")]
    if not data:
        raise SchemaError(f"{path}: no data rows")
    reader = csv.reader(line for _, line in data)
    header = next(reader)
    for col in header:
        if header.count(col) > 1:
            raise SchemaError(f"{path}: column {col!r} appears more than once")
    keys = (schema.region, schema.year, schema.quarter)
    for col in keys:
        if col not in header:
            raise SchemaError(f"{path}: missing required column {col!r}")
    value_pos = [(c, j) for j, c in enumerate(header) if c not in keys]
    if not value_pos:
        raise SchemaError(f"{path}: no value columns")
    ir, iy, iq = (header.index(c) for c in keys)

    # cells are keyed by (region index, quarter code) and scattered onto
    # the grid once every row has been read
    regions: dict[str, int] = {}
    cells: dict[tuple[int, int], list[float]] = {}
    for row in reader:
        lineno = data[reader.line_num - 1][0]
        if len(row) != len(header):
            raise SchemaError(f"{path}:{lineno}: {len(row)} fields where the "
                              f"header has {len(header)}")
        region = row[ir].strip()
        try:
            code = _quarter_code(int(row[iy]), int(row[iq]))
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: bad year/quarter: {exc}") from None
        vals = []
        for col, j in value_pos:
            text = row[j].strip()
            if text == schema.missing:
                vals.append(math.nan)
                continue
            try:
                val = float(text)
            except ValueError:
                val = math.nan
            if not math.isfinite(val):
                raise SchemaError(f"{path}:{lineno}: cannot parse {col}={text!r} "
                                  "as a finite number")
            vals.append(val)
        # a new key stores vals itself, which then compares equal
        old = cells.setdefault((regions.setdefault(region, len(regions)), code),
                               vals)
        for (col, _), a, b in zip(value_pos, old, vals):
            if not (a == b or (a != a and b != b)):
                raise PanelIntegrityError(
                    f"{path}: conflicting duplicate for ({region}, "
                    f"{QuarterIndex(code // 4, code % 4 + 1)}, {col}): {a!r} vs {b!r}"
                )
    if not cells:
        raise SchemaError(f"{path}: no data rows")

    ri, codes = np.array(list(cells)).T
    lo, hi = int(codes.min()), int(codes.max())
    names = tuple(regions)
    # each (region, quarter) key is stored once, so the grid is full iff it
    # has as many cells as keys
    n_gaps = len(names) * (hi - lo + 1) - len(cells)
    if n_gaps:
        # list at most max(rows read, 1000) holes: one mistyped far-off
        # year must not cost a grid of every quarter up to it
        raise GapError(itertools.islice(_holes(names, ri, codes, lo, hi),
                                        max(len(cells), 1000)), n_gaps)
    time = tuple(QuarterIndex(c // 4, c % 4 + 1) for c in range(lo, hi + 1))
    grid = np.full((len(value_pos), len(names), len(time)), math.nan)
    grid[:, ri, codes - lo] = np.array(list(cells.values())).T
    grid.flags.writeable = False   # each series is a read-only view, shared
    series = {col: mat for (col, _), mat in zip(value_pos, grid)}
    units = {k: v for k, v in units.items() if k in series}
    return PanelDataset(names, time, series, units)


def write_panel(
    ds: PanelDataset,
    path,
    schema: PanelSchema | None = None,
    header_comments=(),
) -> None:
    """Write a panel as CSV, rows ordered by region then time.

    Cells follow write_csv's rule, so load_panel(write(ds)) is bitwise and
    keeps -0.0; units go in '# unit' comments. The bytes are csv.writer's,
    but a region's distinct values are formatted once and a row is one join.
    """
    schema = schema or PanelSchema()
    names = ds.variables
    units = [f"unit {n} = {ds.unit(n)}" for n in names if ds.unit(n)]
    cells = np.stack([ds.series[n] for n in names], axis=-1)
    quoted = []   # csv.writer quotes the header, then "missing," and each "region,"
    csv.writer(SimpleNamespace(write=quoted.append), lineterminator="").writerows(
        [[schema.region, schema.year, schema.quarter, *names],
         *([f, ""] for f in (schema.missing, *ds.regions))])
    header, missing, *heads = quoted
    stamps = [f"{q.year},{q.quarter}," for q in ds.time]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(comment_lines([*header_comments, *units]) + header + "\n")
        for head, block in zip(heads, cells):   # one region's texts at a time
            # unique bit patterns: a float unique would merge -0.0 into 0.0
            bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
            text = np.array(_cells(bits.view(float).tolist(), missing[:-1]),
                            dtype=object)[inverse.reshape(block.shape)]
            fh.writelines(f"{head}{s}{','.join(r)}\n"
                          for s, r in zip(stamps, text.tolist()))


def merge_panels(a: PanelDataset, b: PanelDataset) -> PanelDataset:
    """Combine two panels on the same regions over their common window.

    The result keeps a's region order; b's rows are reordered to match, so
    the two files may list their regions in different orders.
    """
    if sorted(a.regions) != sorted(b.regions):
        raise PanelIntegrityError(
            f"region lists differ: {a.regions} vs {b.regions}"
        )
    lo = max(a.time[0], b.time[0])
    hi = min(a.time[-1], b.time[-1])
    if hi - lo < 0:
        raise EmptyPanelError("panels share no quarters")
    clash = set(a.variables) & set(b.variables)
    if clash:
        raise PanelIntegrityError(f"series defined in both panels: {sorted(clash)}")
    a = subset(a, start=lo, end=hi)
    b = subset(b, start=lo, end=hi)
    rows = [b.regions.index(r) for r in a.regions]
    series = dict(a.series)
    series.update((name, mat[rows]) for name, mat in b.series.items())
    units = dict(a.units)
    units.update(b.units)
    return PanelDataset(a.regions, a.time, series, units)
