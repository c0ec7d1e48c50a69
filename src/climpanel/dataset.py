"""Balanced regional quarterly panels: ingestion, validation, log and lag
arithmetic, summaries.

A panel is a set of named region-by-quarter matrices sharing one region list
and one contiguous quarterly index. Missing cells are NaN; estimators drop
incomplete rows listwise and never reindex.
"""
from __future__ import annotations

import contextlib
import csv
import itertools
import math
import os
import re
from types import SimpleNamespace

import numpy as np

from ._record import Record
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
from .specs import (
    _MAX_YEAR,
    PanelSchema,
    QuarterIndex,
    _quarter_at,
    _quarter_code,
    check_list,
)


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
        bad = [q for q in time if not isinstance(q, QuarterIndex)]
        if bad:
            raise SpecError("time must hold QuarterIndex values, "
                            f"got {bad[0]!r}")
        # contiguous: the quarters' codes count up one at a time
        codes = [q.year * 4 + q.quarter for q in time]
        if codes != list(range(codes[0], codes[0] + len(codes))):
            i = next(i for i in range(1, len(codes))
                     if codes[i] - codes[i - 1] != 1)
            raise GapError([("<all>", str(time[i - 1].offset(1)))])
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
    names = ds.variables if variables is None else variables
    check_list("variables", names)
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


class RegionSummary(Record):
    region: str
    min: float
    q1: float
    median: float
    q3: float
    max: float
    mean: float
    sd: float


def summary_stats(ds: PanelDataset, var: str) -> tuple[RegionSummary, ...]:
    """Per-region five-number summary plus mean and sample sd of the finite
    cells.

    Quartiles are type 7 (Hyndman & Fan 1996), with np.quantile's bits: its
    linear-method arithmetic runs once for all regions, and each region's
    cells get the one partition np.quantile would make, with the same kth.
    Min, max, mean and sd are taken before that reordering, because
    pairwise sums depend on element order.
    """
    mat = ds.values(var)
    finite = np.isfinite(mat)
    n = finite.sum(axis=1)
    if not n.all():
        region = ds.regions[np.argmin(n)]
        raise EmptySummaryError(f"{var!r} has no observations for region "
                                f"{region!r}")
    # np.quantile's linear method: virtual index, its neighbours (both the
    # last cell, -1, at or past it) and the weight
    last = (n - 1)[:, None]
    virtual = last * np.array([0.25, 0.5, 0.75])
    prev = np.floor(virtual)
    nxt = prev + 1
    top = virtual >= last
    prev[top] = nxt[top] = -1
    prev, nxt = prev.astype(np.intp), nxt.astype(np.intp)
    gamma = virtual - prev
    a = np.empty_like(virtual)
    b = np.empty_like(virtual)
    moments = []
    for i, size in enumerate(n.tolist()):
        v = mat[i][finite[i]]
        # np.mean's and np.std(ddof=1)'s arithmetic, so their bits
        mean = v.sum() / size
        sd = (math.sqrt(((v - mean) ** 2).sum() / (size - 1)) if size > 1
              else math.nan)
        moments.append((float(v.min()), float(v.max()), float(mean), sd))
        v.partition(sorted({0, -1, *prev[i].tolist(), *nxt[i].tolist()}))
        a[i], b[i] = v[prev[i]], v[nxt[i]]
    # numpy's _lerp: a + (b - a) t, or b - (b - a)(1 - t) where t >= 0.5
    diff = b - a
    q = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=q, where=gamma >= 0.5)
    return tuple(
        RegionSummary(region=region, min=lo, q1=q1, median=med, q3=q3,
                      max=hi, mean=mean, sd=sd)
        for region, (lo, hi, mean, sd), (q1, med, q3)
        in zip(ds.regions, moments, q.tolist()))


# ---------------------------------------------------------------------------
# CSV ingestion and emission
# ---------------------------------------------------------------------------

_UNIT_COMMENT_RE = re.compile(r"^#\s*unit\s+(\S+)\s*=\s*(.*)$")


def comment_lines(comments) -> str:
    """The '# ' lines that head every output file, one per comment."""
    return "".join(f"# {c}\n" for c in comments)


def write_csv(path, comments, header, rows) -> None:
    """Write '# ' comment lines, a header row and the rows; a NaN cell of any
    payload is empty, a float cell its shortest repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(comment_lines(comments))
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(["" if v != v else repr(v) if isinstance(v, float)
                          else v for v in row] for row in rows)


def _holes(names, cells, lo, hi):
    """Yield (region, quarter label) for each code in lo..hi that is not a
    (region index, code) key of cells: regions in order, codes ascending."""
    for i, name in enumerate(names):
        for code in range(lo, hi + 1):
            if (i, code) not in cells:
                yield name, str(_quarter_at(code))


def load_panel(path, schema: PanelSchema | None = None) -> PanelDataset:
    """Load a balanced panel from CSV.

    Expects a header row with region, year and quarter columns plus one or
    more value columns, each named once; '#'-prefixed lines are comments
    ('# unit var = u' comments populate units) and blank lines are skipped.
    A cell is read without the blanks around it, so a padded missing token
    is missing too, and a year lies in -2**60..2**60, so that every quarter
    code fits an int64. Identical duplicate rows are dropped; conflicting
    duplicates raise PanelIntegrityError; a missing (region, quarter) row
    raises GapError naming the holes (the first max(rows read, 1000) of
    them) and counting them all. Lines may end in \\n, \\r\\n or \\r;
    one leading byte-order mark is dropped.

    After _header's checks, a plain file is parsed column-wise by
    _plain_panel, on numpy 2.4's loadtxt; any other file, and every file
    that fails a check, is read row by row by _row_panel. Both give the
    same panel for a plain file.
    """
    schema = schema or PanelSchema()
    try:
        # universal newlines: no "\r" reaches either reader
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc.reason}") from None
    head = _header(path, lines, schema)
    ds = _plain_panel(lines, head, schema)
    return ds if ds is not None else _row_panel(path, lines, head, schema)


def _header(path, lines, schema: PanelSchema):
    """Find and check a panel file's header: the first line that is neither
    blank nor a '#' comment, read by csv over such lines. Returns its index
    in lines, the rows after it as (file line number of the row's last
    line, cells), its cells and the (name, position) of each value column."""
    taken = []   # the file line number of each line the reader has taken
    reader = csv.reader(taken.append(n) or line
                        for n, line in enumerate(lines, start=1)
                        if line.strip() and not line.startswith("#"))
    header = next(reader, None)
    if header is None:
        raise SchemaError(f"{path}: no data rows")
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
    return taken[0] - 1, ((taken[-1], row) for row in reader), header, value_pos


def _plain_panel(lines, head, schema: PanelSchema) -> PanelDataset | None:
    """The panel of a plain file, parsed by one np.loadtxt call; None for
    any other file.

    Plain means: no comment line below the header and no quote or NUL from
    the header on; a missing token without outer blanks, a comma or a
    newline; a data row, each as wide as the header, whose years and
    quarters read as integers and value cells as finite numbers or the
    missing token, no cell being the token padded with blanks; years in
    -_MAX_YEAR.._MAX_YEAR and quarters in 1..4; region names without outer
    blanks, as loadtxt keeps region cells raw; and one row for each
    (region, quarter) of a hole-free grid. numpy 2.4's loadtxt, the contract
    here, skips empty lines and strips the blanks around a number as
    _row_panel does, so _row_panel then raises nothing and reads the same
    numbers, which float() and loadtxt parse alike.
    """
    at, _, header, value_pos = head
    text = "".join(lines[at:])   # the header line, then the data lines
    missing = schema.missing
    if ('"' in text or "\0" in text or "\n#" in text
            or "," in missing or "\n" in missing or missing != missing.strip()):
        return None
    # each cell that is the missing token becomes a nan literal other than
    # the token; the first pattern runs twice, since a match takes the
    # comma that opens the next cell. The literal is never as long as the
    # token, so each match changes the body's length by grow, which then
    # counts them without a scan of its own.
    nan = "+nan" if len(missing) == 3 else "nan"
    body = "\n" + text[len(lines[at]):] + "\n"
    grow, size = len(nan) - len(missing), len(body)
    for a, b in ((",", ","), (",", ","), (",", "\n"), ("\n", ",")):
        body = body.replace(a + missing + b, a + nan + b)
    n_missing = (len(body) - size) // grow
    # loadtxt's integer parser takes some letters past ASCII for digits, so
    # the years and quarters of a file that is not ASCII are read by int()
    whole = np.int64 if text.isascii() else object
    kinds = {schema.region: object, schema.year: whole, schema.quarter: whole}
    if not body.strip("\n"):   # no data rows, which loadtxt would warn of
        return None
    try:
        rows = np.loadtxt(body.split("\n"), delimiter=",", comments=None,
                          ndmin=1, dtype=[(f"c{j}", kinds.get(col, float))
                                          for j, col in enumerate(header)])
        region, year, quarter = (rows[f"c{header.index(c)}"] for c in kinds)
        year, quarter = year.astype(np.int64), quarter.astype(np.int64)
    except (ValueError, OverflowError):   # a bad cell or row width
        return None
    region = region.tolist()
    names = tuple(dict.fromkeys(region))
    values = np.stack([rows[f"c{j}"] for _, j in value_pos])
    try:   # a number token padded with blanks reads here as that number
        token = float(missing)
    except ValueError:
        token = math.nan
    # a token in a region cell leaves a region named nan; a nan or inf
    # literal leaves more non-finite cells than tokens
    if (nan in names or n_missing != np.count_nonzero(~np.isfinite(values))
            or token in values or any(name != name.strip() for name in names)
            or not ((quarter >= 1) & (quarter <= 4)).all()
            or year.min() < -_MAX_YEAR or year.max() > _MAX_YEAR):
        return None
    codes = year * 4 + quarter - 1
    lo, hi = int(codes.min()), int(codes.max())
    if len(rows) != len(names) * (hi - lo + 1):
        return None
    index = {name: i for i, name in enumerate(names)}
    ri = np.fromiter(map(index.__getitem__, region), np.intp, len(rows))
    seen = np.zeros((len(names), hi - lo + 1), dtype=bool)
    seen[ri, codes - lo] = True
    if not seen.all():   # one row per cell, as a repeated key leaves a hole
        return None
    return _grid_panel(names, ri, codes, lo, hi, value_pos, values,
                       lines[:at])


def _row_panel(path, lines, head, schema: PanelSchema) -> PanelDataset:
    """load_panel's row loop: checks each row after the header in file
    order and raises the first error with its path:line."""
    _, rows, header, value_pos = head
    ir, iy, iq = (header.index(c)
                  for c in (schema.region, schema.year, schema.quarter))

    # cells are keyed by (region index, quarter code) and scattered onto
    # the grid once every row has been read
    regions: dict[str, int] = {}
    cells: dict[tuple[int, int], list[float]] = {}
    for lineno, row in rows:
        if len(row) != len(header):
            raise SchemaError(f"{path}:{lineno}: {len(row)} fields where the "
                              f"header has {len(header)}")
        region = row[ir].strip()
        try:   # stripped, as int() alone keeps the blanks \x1c..\x1f
            code = _quarter_code(int(row[iy].strip()), int(row[iq].strip()))
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
                    f"{_quarter_at(code)}, {col}): {a!r} vs {b!r}"
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
        raise GapError(itertools.islice(_holes(names, cells, lo, hi),
                                        max(len(cells), 1000)), n_gaps)
    return _grid_panel(names, ri, codes, lo, hi, value_pos,
                       np.array(list(cells.values())).T, lines)


def _grid_panel(names, ri, codes, lo, hi, value_pos, values, lines):
    """The panel whose value column k holds values[k, j] at region ri[j] and
    quarter code codes[j], on the full grid of names by quarters lo..hi;
    units come from the '# unit' comments among lines, in their order."""
    grid = np.empty((len(value_pos), len(names), hi - lo + 1))
    grid[:, ri, codes - lo] = values
    grid.flags.writeable = False   # each series is a read-only view, shared
    series = {col: mat for (col, _), mat in zip(value_pos, grid)}
    units = {m.group(1): m.group(2).strip()
             for m in map(_UNIT_COMMENT_RE.match, lines) if m}
    return PanelDataset(names, tuple(map(_quarter_at, range(lo, hi + 1))),
                        series, {k: v for k, v in units.items() if k in series})


def write_panel(
    ds: PanelDataset,
    files,
    schema: PanelSchema | None = None,
    header_comments=(),
) -> None:
    """Write panel CSV files from one panel, rows ordered by region then time.

    files maps each path to the names of the series it holds, in column
    order (a name listed twice is written once); a plain path is one file
    of all of ds's series. Each file has the bytes that writing
    subset(ds, names) alone would give, and cells follow write_csv's rule,
    so load_panel(write(ds)) is bitwise and keeps -0.0; units go in
    '# unit' comments. The bytes are csv.writer's, but the files are
    written together a region at a time: the region's distinct values
    across every written series are formatted once, and its rows go to
    each file in one write.
    """
    schema = schema or PanelSchema()
    if isinstance(files, (str, os.PathLike)):
        files = {files: ds.variables}
    for names in files.values():
        check_list("each file's series", names)
    files = {path: tuple(dict.fromkeys(names)) for path, names in files.items()}
    # every written series once, as a column of each region's block
    written = list(dict.fromkeys(n for names in files.values() for n in names))
    mats = [ds.values(n) for n in written]   # raises VariableLookupError
    column = {n: j for j, n in enumerate(written)}
    quoted = []   # csv.writer quotes each header, then "missing," and each "region,"
    csv.writer(SimpleNamespace(write=quoted.append), lineterminator="").writerows(
        [*([schema.region, schema.year, schema.quarter, *names]
           for names in files.values()),
         *([f, ""] for f in (schema.missing, *ds.regions))])
    headers = quoted[:len(files)]
    missing, *heads = quoted[len(files):]
    stamps = [f"{q.year},{q.quarter}" for q in ds.time]
    block = np.empty((ds.n_quarters, len(written)))
    with contextlib.ExitStack() as stack:
        outs = []
        for (path, names), header in zip(files.items(), headers):
            fh = stack.enter_context(open(path, "w", encoding="utf-8",
                                          newline=""))
            units = [f"unit {n} = {ds.unit(n)}" for n in names if ds.unit(n)]
            fh.write(comment_lines([*header_comments, *units]) + header + "\n")
            outs.append((fh, [0, *(1 + column[n] for n in names)]))
        for i, head in enumerate(heads):   # one region at a time
            for j, mat in enumerate(mats):
                block[:, j] = mat[i]
            _write_rows(outs, [head + s for s in stamps], block, missing[:-1])


def _write_rows(outs, starts, block, missing: str) -> None:
    """Write rows to each (file, columns) pair of outs: row t is starts[t]
    and the texts of block[t] at the columns, each a position in block
    plus 1 (0 is the start). Each distinct bit pattern of block is
    formatted once; what this allocates is freed before the next call."""
    # unique bit patterns: a float unique would merge -0.0 into 0.0
    bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
    values = bits.view(float)
    # write_csv's cell rule over a list of floats at once
    cells = list(map(repr, values.tolist()))
    for k in np.flatnonzero(np.isnan(values)).tolist():
        cells[k] = missing
    text = np.empty((len(starts), 1 + block.shape[1]), dtype=object)
    text[:, 0] = starts
    text[:, 1:] = np.array(cells, dtype=object)[inverse]
    for fh, cols in outs:
        fh.write("\n".join(map(",".join, text[:, cols].tolist())) + "\n")


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
    a = subset(a, start=lo, end=hi)
    b = subset(b, start=lo, end=hi)
    rows = [b.regions.index(r) for r in a.regions]
    return _join(a, {name: mat[rows] for name, mat in b.series.items()},
                 b.units)


def _join(ds: PanelDataset, series, units) -> PanelDataset:
    """ds with series, each a matrix on ds's grid, and their units appended;
    a name that ds already holds raises PanelIntegrityError."""
    clash = sorted(set(ds.series) & set(series))
    if clash:
        raise PanelIntegrityError(f"series already in the panel: {clash}")
    return PanelDataset(ds.regions, ds.time, {**ds.series, **series},
                        {**ds.units, **units})
