"""Panel container, CSV round trips, log changes and summaries."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from climpanel import (
    LPSpec,
    PanelDataset,
    PanelSchema,
    QuarterIndex,
    load_panel,
    merge_panels,
    quarter_range,
    summary_stats,
    write_panel,
)
from climpanel.dataset import (
    _header,
    _plain_panel,
    _row_panel,
    checked_log,
    shift,
    subset,
)
from climpanel.errors import (
    DataValidationError,
    EmptyPanelError,
    EmptySummaryError,
    GapError,
    PanelIntegrityError,
    SchemaError,
    TransformDomainError,
    VariableLookupError,
)
from climpanel.localproj import build_lp_design
import oracles
from oracles import (
    panels_equal,
    quantile_type7,
    with_series,
    write_panel_csv,
)


def make_panel(n_regions=3, n_quarters=12, seed=0, start=QuarterIndex(2000, 1)):
    rng = np.random.default_rng(seed)
    regions = [f"r{i}" for i in range(n_regions)]
    time = quarter_range(start, start.offset(n_quarters - 1))
    series = {
        "cpi": 100.0 + rng.normal(0, 5, (n_regions, n_quarters)).cumsum(axis=1),
        "temp": rng.normal(20, 3, (n_regions, n_quarters)),
    }
    return PanelDataset(regions, time, series, {"cpi": "index", "temp": "degC"})


def write_csv(path, rows, header="region,year,quarter,cpi"):
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# QuarterIndex
# ---------------------------------------------------------------------------

def test_quarter_ordering_and_successor():
    assert QuarterIndex(2003, 4) < QuarterIndex(2004, 1)
    assert QuarterIndex(2003, 4).offset(1) == QuarterIndex(2004, 1)
    assert QuarterIndex(2004, 1) - QuarterIndex(2003, 4) == 1
    assert QuarterIndex.parse("2002Q3") == QuarterIndex(2002, 3)
    with pytest.raises(ValueError):
        QuarterIndex(2000, 5)
    with pytest.raises(ValueError):
        QuarterIndex.parse("2002-03")


@given(st.integers(1990, 2050), st.integers(1, 4), st.integers(-30, 30))
def test_quarter_offset_roundtrip(year, quarter, n):
    q = QuarterIndex(year, quarter)
    assert q.offset(n).offset(-n) == q
    assert q.offset(n) - q == n


def test_quarter_range_length():
    qs = quarter_range(QuarterIndex(2002, 1), QuarterIndex(2023, 4))
    assert len(qs) == 88
    assert qs[0] == QuarterIndex(2002, 1)
    assert qs[-1] == QuarterIndex(2023, 4)


# ---------------------------------------------------------------------------
# load_panel
# ---------------------------------------------------------------------------

def test_load_panel_dimensions(tmp_path):
    rows = []
    for r in range(7):
        q = QuarterIndex(2002, 1)
        for _ in range(92):
            rows.append(f"reg{r},{q.year},{q.quarter},{100 + r}")
            q = q.offset(1)
    path = tmp_path / "panel.csv"
    write_csv(path, rows)
    ds = load_panel(path)
    assert ds.n_regions == 7
    assert ds.n_quarters == 92
    assert ds.variables == ("cpi",)


def test_load_panel_gap_error_names_cell(tmp_path):
    rows = []
    for r in ("a", "b"):
        q = QuarterIndex(2003, 1)
        for _ in range(8):
            if not (r == "b" and q == QuarterIndex(2003, 2)):
                rows.append(f"{r},{q.year},{q.quarter},1.0")
            q = q.offset(1)
    path = tmp_path / "panel.csv"
    write_csv(path, rows)
    with pytest.raises(GapError) as err:
        load_panel(path)
    assert ("b", "2003Q2") in err.value.gaps


def test_load_panel_gap_error_lists_the_holes_region_by_region(tmp_path):
    # rows go quarter by quarter; holes at the first and the last quarter of
    # the grid, in different regions, are listed in region order
    missing = {("a", 2), ("b", 1), ("c", 1), ("c", 4)}
    rows = [f"{r},2003,{q},1.0" for q in range(1, 5) for r in "abc"
            if (r, q) not in missing]
    path = tmp_path / "panel.csv"
    write_csv(path, rows)
    with pytest.raises(GapError) as err:
        load_panel(path)
    assert err.value.gaps == (("a", "2003Q2"), ("b", "2003Q1"),
                              ("c", "2003Q1"), ("c", "2003Q4"))
    assert err.value.count == 4


def test_load_panel_far_off_year_raises_without_the_grid(tmp_path):
    # a mistyped 7-digit year puts about 4 million quarters between the
    # rows; the error counts them instead of listing each one
    path = tmp_path / "panel.csv"
    write_csv(path, ["a,2000,1,1.0", "a,2000,2,2.0", "a,1000000,1,3.0"])
    tracemalloc.start()
    try:
        with pytest.raises(GapError) as err:
            load_panel(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    n_gaps = (1000000 - 2000) * 4 + 1 - 3
    assert err.value.count == n_gaps
    assert err.value.gaps[:2] == (("a", "2000Q3"), ("a", "2000Q4"))
    assert str(err.value) == (
        "missing quarters: " + ", ".join(f"(a, {q})" for q in (
            "2000Q3", "2000Q4", "2001Q1", "2001Q2", "2001Q3", "2001Q4",
            "2002Q1", "2002Q2")) + f" and {n_gaps - 8} more")


@pytest.mark.parametrize("year", ["99999999999999999999",
                                  "2305843009213693952", "-2305843009213693952"])
def test_load_panel_year_past_the_int64_bound_names_its_line(tmp_path, year):
    # past 2**60 a quarter code overflows int64: the first year ended in an
    # IndexError from the grid, the second in a GapError of count -1
    path = tmp_path / "panel.csv"
    write_csv(path, ["a,2000,1,1.0", f"a,{year},2,2.0"])
    with pytest.raises(SchemaError) as err:
        load_panel(path)
    assert str(err.value) == (f"{path}:3: bad year/quarter: year must be in "
                              f"-{2**60}..{2**60}, got {year}")


def test_load_panel_reads_the_years_at_the_bound(tmp_path):
    path = tmp_path / "panel.csv"
    write_csv(path, [f"a,{2**60},4,1.0", f"b,{2**60},4,2.0"])
    fast, loop = _both_readers(path)
    assert fast.time == loop.time == (QuarterIndex(2**60, 4),)
    write_csv(path, [f"a,-{2**60},1,1.0"])
    assert load_panel(path).time == (QuarterIndex(-2**60, 1),)


def test_load_panel_dedups_identical_rows(tmp_path):
    rows = ["a,2000,1,1.5", "a,2000,1,1.5", "a,2000,2,2.5"]
    path = tmp_path / "panel.csv"
    write_csv(path, rows)
    ds = load_panel(path)
    assert ds.n_quarters == 2
    assert ds.values("cpi")[0, 0] == 1.5


def test_load_panel_conflicting_duplicate(tmp_path):
    rows = ["a,2000,1,1.5", "a,2000,1,1.6"]
    path = tmp_path / "panel.csv"
    write_csv(path, rows)
    with pytest.raises(PanelIntegrityError, match="cpi"):
        load_panel(path)


def test_load_panel_missing_column(tmp_path):
    path = tmp_path / "panel.csv"
    write_csv(path, ["a,2000,1.5"], header="region,year,cpi")
    with pytest.raises(SchemaError, match="quarter"):
        load_panel(path)


def test_load_panel_missing_sentinel(tmp_path):
    rows = ["a,2000,1,", "a,2000,2,2.0"]
    path = tmp_path / "panel.csv"
    write_csv(path, rows)
    ds = load_panel(path)
    assert math.isnan(ds.values("cpi")[0, 0])
    assert ds.values("cpi")[0, 1] == 2.0


@pytest.mark.parametrize("row", ["a,2000,2", "a,2000,2,2.5,9"])
def test_load_panel_ragged_row_names_file_line(tmp_path, row):
    path = tmp_path / "panel.csv"
    path.write_text("# unit cpi = index\nregion,year,quarter,cpi\n"
                    f"a,2000,1,1.5\n\n{row}\n", encoding="utf-8")
    n = row.count(",") + 1
    with pytest.raises(SchemaError, match=rf"panel\.csv:5: {n} fields"):
        load_panel(path)


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity"])
def test_load_panel_rejects_non_finite_literals(tmp_path, cell):
    path = tmp_path / "panel.csv"
    write_csv(path, ["a,2000,1,1.5", f"a,2000,2,{cell}"])
    with pytest.raises(SchemaError, match=rf"panel\.csv:3: cannot parse "
                                          rf"cpi='{cell}'"):
        load_panel(path)


def test_round_trip_bitwise(tmp_path):
    ds = make_panel(seed=42)
    mat = np.array(ds.values("cpi"))
    mat[0, 3] = np.nan
    ds = with_series(ds, "cpi", mat, "index")
    path = tmp_path / "out.csv"
    write_panel(ds, path)
    back = load_panel(path)
    assert panels_equal(back, ds)
    # and a second loop is a fixed point
    path2 = tmp_path / "out2.csv"
    write_panel(back, path2)
    assert panels_equal(load_panel(path2), back)


# ---------------------------------------------------------------------------
# log changes, built from checked_log and shift as the LP and ARDL designs
# build them
# ---------------------------------------------------------------------------

def log_change(ds, name):
    log = checked_log(ds, name)
    return log - shift(log, 1)


def test_logdiff_constant_is_zero():
    ds = make_panel()
    const = np.full((ds.n_regions, ds.n_quarters), 100.0)
    vals = log_change(with_series(ds, "flat", const), "flat")
    assert np.all(vals[:, 1:] == 0.0)
    assert np.all(np.isnan(vals[:, 0]))


def test_logdiff_hand_value():
    time = quarter_range(QuarterIndex(2000, 1), QuarterIndex(2000, 2))
    ds = PanelDataset(["a"], time, {"x": [[100.0, 102.0]]})
    got = log_change(ds, "x")[0, 1]
    assert got == pytest.approx(math.log(1.02), rel=1e-12)
    assert abs(got - 0.019803) < 1e-6


def test_cumulative_log_growth_h0_equals_logdiff():
    # at horizon 0 the LP outcome log(P[t]) - log(P[t-1]) is the log change
    # whose first lag is a control, so each row's outcome is the lag of the
    # region's next row
    ds = make_panel(seed=5)
    spec = LPSpec("cpi", ("temp",), lags=1, fixed_effects=())
    design = build_lp_design(ds, spec, 0)
    np.testing.assert_array_equal(design.y,
                                  log_change(ds, "cpi")[:, 2:].ravel())
    lag = design.X[:, design.names.index("dlog_cpi_lag1")]
    same = design.region_codes[1:] == design.region_codes[:-1]
    np.testing.assert_array_equal(design.y[:-1][same], lag[1:][same])


def test_shift_lags_and_leads_with_nan_outside_the_panel():
    mat = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    nan = math.nan
    np.testing.assert_array_equal(shift(mat, 0), mat)
    np.testing.assert_array_equal(shift(mat, 1),
                                  [[nan, 1.0, 2.0], [nan, 4.0, 5.0]])
    np.testing.assert_array_equal(shift(mat, -2),
                                  [[3.0, nan, nan], [6.0, nan, nan]])
    assert np.isnan(shift(mat, 3)).all() and np.isnan(shift(mat, -3)).all()


def test_log_rejects_nonpositive():
    time = quarter_range(QuarterIndex(2000, 1), QuarterIndex(2000, 2))
    ds = PanelDataset(["a"], time, {"x": [[100.0, -1.0]]})
    with pytest.raises(TransformDomainError, match="2000Q2"):
        checked_log(ds, "x")


def test_logdiff_telescopes_to_1e12():
    ds = make_panel(seed=9, n_quarters=40)
    dl = log_change(ds, "cpi")
    lg = np.log(ds.values("cpi"))
    a, b = 5, 31
    total = dl[:, a:b + 1].sum(axis=1)
    np.testing.assert_allclose(total, lg[:, b] - lg[:, a - 1], atol=1e-12)


# ---------------------------------------------------------------------------
# subset
# ---------------------------------------------------------------------------

def test_subset_identity():
    ds = make_panel()
    assert panels_equal(subset(ds), ds)


def test_subset_estimation_window():
    ds = make_panel(n_quarters=100, start=QuarterIndex(2000, 1))
    out = subset(ds, start="2002Q1", end="2023Q4")
    assert out.n_quarters == 88
    assert str(out.time[0]) == "2002Q1"


def test_subset_empty_window():
    ds = make_panel()
    with pytest.raises(EmptyPanelError):
        subset(ds, start="2010Q1", end="2009Q1")


def test_subset_unknown_variable():
    ds = make_panel()
    with pytest.raises(VariableLookupError):
        subset(ds, ["nope"])


def test_subset_projection_composes():
    ds = make_panel(n_quarters=24)
    once = subset(ds, start="2001Q1", end="2002Q2")
    twice = subset(subset(ds, start="2000Q3", end="2002Q4"),
                   start="2001Q1", end="2002Q2")
    assert panels_equal(once, twice)


# ---------------------------------------------------------------------------
# summary stats
# ---------------------------------------------------------------------------

def test_summary_basic():
    time = quarter_range(QuarterIndex(2000, 1), QuarterIndex(2001, 1))
    ds = PanelDataset(["a"], time, {"x": [[1.0, 2.0, 3.0, 4.0, 5.0]]})
    (s,) = summary_stats(ds, "x")
    assert s.median == 3.0 and s.mean == 3.0
    assert s.q1 == quantile_type7([1, 2, 3, 4, 5], 0.25) == 2.0
    assert s.q3 == quantile_type7([1, 2, 3, 4, 5], 0.75) == 4.0


def test_summary_type7_interpolation():
    time = quarter_range(QuarterIndex(2000, 1), QuarterIndex(2000, 4))
    vals = [1.0, 2.0, 3.0, 10.0]
    ds = PanelDataset(["a"], time, {"x": [vals]})
    (s,) = summary_stats(ds, "x")
    assert s.q1 == pytest.approx(quantile_type7(vals, 0.25), rel=1e-15)
    assert s.q3 == pytest.approx(quantile_type7(vals, 0.75), rel=1e-15)


def test_summary_single_observation():
    time = quarter_range(QuarterIndex(2000, 1), QuarterIndex(2000, 2))
    ds = PanelDataset(["a"], time, {"x": [[7.0, math.nan]]})
    (s,) = summary_stats(ds, "x")
    assert s.min == s.max == s.median == 7.0
    assert math.isnan(s.sd)


def test_summary_all_missing():
    time = quarter_range(QuarterIndex(2000, 1), QuarterIndex(2000, 2))
    ds = PanelDataset(["a"], time, {"x": [[math.nan, math.nan]]})
    with pytest.raises(EmptySummaryError):
        summary_stats(ds, "x")


# signed zeros, ties and repeats from the pool, moderate magnitudes otherwise
_SUMMARY_CELL = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]),
    st.floats(-1e6, 1e6),
)


@st.composite
def _summary_panel(draw):
    """A region x quarter matrix whose rows are ragged (NaN holes), hold
    one finite cell, repeat one value, or are blank. Long panels, whose
    ragged rows come from a seeded generator, reach numpy's pairwise
    summation blocks."""
    n_regions = draw(st.integers(1, 6))
    n_quarters = draw(st.one_of(st.integers(1, 30), st.integers(129, 400)))
    rows = []
    for _ in range(n_regions):
        kind = draw(st.sampled_from(["ragged", "ragged", "one", "repeat",
                                     "blank"]))
        row = [math.nan] * n_quarters
        if kind == "ragged" and n_quarters > 30:
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            pool = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, math.nan]
            row = np.where(rng.random(n_quarters) < 0.5,
                           rng.choice(pool, n_quarters),
                           rng.uniform(-1e6, 1e6, n_quarters))
        elif kind == "ragged":
            row = draw(st.lists(st.one_of(_SUMMARY_CELL, st.just(math.nan)),
                                min_size=n_quarters, max_size=n_quarters))
        elif kind == "one":
            row[draw(st.integers(0, n_quarters - 1))] = draw(_SUMMARY_CELL)
        elif kind == "repeat":
            row = [draw(_SUMMARY_CELL)] * n_quarters
        rows.append(row)
    return rows


@settings(max_examples=300, deadline=None)
@given(_summary_panel())
def test_summary_stats_keep_the_per_region_quantile_bits(rows):
    time = quarter_range(QuarterIndex(2000, 1),
                         QuarterIndex(2000, 1).offset(len(rows[0]) - 1))
    ds = PanelDataset([f"r{i}" for i in range(len(rows))], time, {"x": rows})
    outcomes = []
    for fn in (summary_stats, oracles.summary_stats):
        try:
            outcomes.append(fn(ds, "x"))
        except EmptySummaryError as exc:
            outcomes.append(str(exc))
    got, want = outcomes
    if isinstance(want, str):
        assert got == want
        return
    fields = ("min", "q1", "median", "q3", "max", "mean", "sd")
    for g, w in zip(got, want, strict=True):
        assert g.region == w.region
        assert (np.array([getattr(g, f) for f in fields]).view(np.int64)
                == np.array([getattr(w, f) for f in fields]).view(np.int64)
                ).all()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_summary_mean_and_sd_keep_numpys_bits(data):
    # mean and sd are np.mean's and np.std(ddof=1)'s arithmetic written out;
    # rows have NaN holes, signed zeros, one finite cell, or reach numpy's
    # pairwise summation blocks
    n_quarters = data.draw(st.one_of(st.integers(1, 20),
                                     st.integers(129, 300)))
    shape = (data.draw(st.integers(1, 4)), n_quarters)
    if n_quarters <= 20:
        # every cell drawn on its own: no fill value
        cell = st.one_of(_SUMMARY_CELL, st.floats(-1e150, 1e150),
                         st.just(math.nan))
        rows = data.draw(arrays(float, shape, elements=cell,
                                fill=st.nothing()))
    else:
        # long rows from a seeded generator, with the short rows' mix: a pool
        # value, a moderate or a large magnitude, or a NaN hole
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pool = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0]
        kinds = rng.choice(4, shape, p=[1 / 6, 1 / 6, 1 / 3, 1 / 3])
        rows = np.choose(kinds, [rng.choice(pool, shape),
                                 rng.uniform(-1e6, 1e6, shape),
                                 rng.uniform(-1e150, 1e150, shape),
                                 np.full(shape, math.nan)])
    for row in rows:   # each region keeps one finite cell
        row[data.draw(st.integers(0, n_quarters - 1))] = data.draw(
            _SUMMARY_CELL)
    time = quarter_range(QuarterIndex(2000, 1),
                         QuarterIndex(2000, 1).offset(n_quarters - 1))
    ds = PanelDataset([f"r{i}" for i in range(len(rows))], time, {"x": rows})
    got = [(s.mean, s.sd) for s in summary_stats(ds, "x")]
    want = []
    for row in rows:
        v = row[np.isfinite(row)]
        want.append((float(np.mean(v)),
                     float(np.std(v, ddof=1)) if v.size > 1 else math.nan))
    assert (np.array(got).view(np.int64)
            == np.array(want).view(np.int64)).all()


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def test_dataset_immutable():
    ds = make_panel()
    with pytest.raises(AttributeError):
        ds.regions = ("x",)
    with pytest.raises(ValueError):
        ds.values("cpi")[0, 0] = 1.0


def test_frozen_arrays_are_shared_and_writeable_ones_copied():
    ds = make_panel()
    base = np.arange(ds.n_regions * ds.n_quarters, dtype=float).reshape(
        ds.n_regions, ds.n_quarters)
    readonly_view = base[:, :]
    readonly_view.flags.writeable = False
    out = with_series(with_series(ds, "plain", base), "view", readonly_view)
    # series the dataset already holds are frozen, so they are shared
    assert out.values("cpi") is ds.values("cpi")
    assert np.shares_memory(subset(out, ["temp"]).values("temp"),
                            ds.values("temp"))
    # a writeable array, or a read-only view of one, is copied: mutating it
    # afterwards leaves the dataset unchanged
    base[:] = -1.0
    assert out.values("plain")[0, 0] == 0.0
    assert out.values("view")[0, 0] == 0.0


@pytest.mark.parametrize("regions, n_quarters, series, error, message", [
    ([], 4, {}, EmptyPanelError, "panel has no regions"),
    (["a"], 0, {}, EmptyPanelError, "panel has no quarters"),
    (["a", "b", "a"], 4, {}, PanelIntegrityError,
     "region names must be unique"),
    (["a"], 4, {"x": np.zeros((2, 4))}, PanelIntegrityError,
     "series 'x' has shape (2, 4), expected (1, 4)"),
])
def test_malformed_panels_rejected(regions, n_quarters, series, error,
                                   message):
    start = QuarterIndex(2000, 1)
    time = [start.offset(i) for i in range(n_quarters)]
    with pytest.raises(error) as info:
        PanelDataset(regions, time, series)
    assert str(info.value) == message


def test_load_panel_without_value_columns(tmp_path):
    path = tmp_path / "panel.csv"
    write_csv(path, ["a,2000,1", "a,2000,2"], header="region,year,quarter")
    with pytest.raises(SchemaError) as info:
        load_panel(path)
    assert str(info.value) == f"{path}: no value columns"


def test_merge_panels_without_common_quarters():
    a = make_panel(n_quarters=4, start=QuarterIndex(2000, 1))
    b = make_panel(n_quarters=4, start=QuarterIndex(2001, 1), seed=1)
    b = PanelDataset(b.regions, b.time, {"other": b.values("temp")})
    with pytest.raises(EmptyPanelError) as info:
        merge_panels(a, b)
    assert str(info.value) == "panels share no quarters"


def test_noncontiguous_time_rejected():
    qs = (QuarterIndex(2000, 1), QuarterIndex(2000, 3))
    with pytest.raises(GapError):
        PanelDataset(["a"], qs, {"x": [[1.0, 2.0]]})


def test_merge_panels_common_window():
    a = make_panel(n_quarters=12, start=QuarterIndex(2000, 1))
    b = make_panel(n_quarters=12, start=QuarterIndex(2001, 1), seed=1)
    b = PanelDataset(b.regions, b.time, {"other": b.values("temp")})
    merged = merge_panels(a, b)
    assert str(merged.time[0]) == "2001Q1"
    assert set(merged.variables) == {"cpi", "temp", "other"}


def test_merge_panels_aligns_region_order_and_rejects_other_sets():
    a = make_panel(n_quarters=8)
    rows = list(reversed(range(a.n_regions)))
    b = PanelDataset([a.regions[i] for i in rows], a.time,
                     {"other": np.asarray(a.values("temp"))[rows] + 1.0})
    merged = merge_panels(a, b)
    assert merged.regions == a.regions
    np.testing.assert_array_equal(merged.values("other"),
                                  np.asarray(a.values("temp")) + 1.0)
    c = PanelDataset(a.regions[:-1] + ("zz",), a.time,
                     {"other": b.values("other")})
    with pytest.raises(PanelIntegrityError):
        merge_panels(a, c)
    # a series held by both panels
    with pytest.raises(PanelIntegrityError, match=r"\['other'\]"):
        merge_panels(merged, b)


@settings(max_examples=60)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e12, max_value=1e12),
                min_size=2, max_size=10))
def test_write_read_roundtrip_values(tmp_path_factory, values):
    tmp = tmp_path_factory.mktemp("rt")
    time = quarter_range(QuarterIndex(2000, 1),
                         QuarterIndex(2000, 1).offset(len(values) - 1))
    ds = PanelDataset(["a"], time, {"x": [values]})
    path = tmp / "x.csv"
    write_panel(ds, path)
    back = load_panel(path)
    np.testing.assert_array_equal(back.values("x"), ds.values("x"))


# ---------------------------------------------------------------------------
# load_panel / write_panel properties
# ---------------------------------------------------------------------------

_COLUMN = st.sampled_from(["region", "year", "quarter", "cpi", "food", "x"])
_CELL = st.one_of(
    st.sampled_from(["", " ", "1.5", "-2", "1e3", "0", "nan", "inf", "-inf",
                     "abc", "NA", "9", "x y"]),
    st.integers(1990, 2010).map(str),
    st.integers(-1, 5).map(str),
)
# blanks that str.strip, float() and loadtxt drop around a number; int()
# alone keeps the separator \x1c
_BLANKS = [" ", "\t", "\xa0", "\u3000", "\x1c"]
_PAD = st.sampled_from(["", "", *_BLANKS])


@st.composite
def _panel_text(draw):
    """CSV text near the schema: random headers (repeats included), rows
    of the right or wrong width, duplicates and holes, comments, blank
    lines and blanks around number cells."""
    def pad(cell):
        return draw(_PAD) + cell + draw(_PAD)

    header = draw(st.one_of(
        st.just(["region", "year", "quarter", "cpi", "food"]),
        st.lists(_COLUMN, max_size=6),
    ))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row", "row", "row", "cells", "blank",
                                     "comment"]))
        if kind == "row":
            lines.append(",".join([
                draw(st.sampled_from(["a", "b", " c"])),
                pad(str(draw(st.integers(1990, 2010)))),
                pad(str(draw(st.integers(1, 4)))),
                *[pad(draw(_CELL)) for _ in header[3:]],
            ]))
        elif kind == "cells":
            lines.append(",".join(draw(st.lists(_CELL, max_size=7))))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "", "  ", "\t", "\u3000"])))
        else:
            lines.append(draw(st.sampled_from(["# note", "# unit cpi = idx"])))
    if draw(st.booleans()):
        lines = lines + lines[1:3]   # duplicated rows
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(text=_panel_text())
def test_load_panel_returns_a_panel_or_a_validation_error(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("prop") / "panel.csv"
    path.write_text(text, encoding="utf-8")
    try:
        ds = load_panel(path)
    except DataValidationError:
        return
    assert isinstance(ds, PanelDataset)
    header = next(l for l in text.splitlines() if l.strip()
                  and not l.startswith("#")).split(",")
    # every value column of the header becomes exactly one series
    assert len(ds.variables) == len(header) - 3


_NAME = st.text("abcdefghXYZ019", min_size=1, max_size=4)


@st.composite
def _panel(draw):
    regions = draw(st.lists(_NAME, min_size=1, max_size=3, unique=True))
    names = draw(st.lists(_NAME.filter(lambda n: n not in
                                       ("region", "year", "quarter")),
                          min_size=1, max_size=3, unique=True))
    n = draw(st.integers(1, 10))
    start = QuarterIndex(draw(st.integers(1990, 2010)), draw(st.integers(1, 4)))
    cell = st.floats(allow_infinity=False, allow_nan=True)
    series = {name: np.array(draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                           min_size=len(regions),
                                           max_size=len(regions))))
              for name in names}
    units = {name: draw(st.sampled_from(["", "index", "log change", "a=b"]))
             for name in names}
    return PanelDataset(regions, quarter_range(start, start.offset(n - 1)),
                        series, {k: u for k, u in units.items() if u})


@settings(max_examples=150, deadline=None)
@given(ds=_panel())
def test_write_load_round_trip_bitwise_with_sentinel(ds, tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "panel.csv"
    schema = PanelSchema(missing="NA")
    write_panel(ds, path, schema)
    back = load_panel(path, schema)
    assert back.regions == ds.regions and back.time == ds.time
    assert back.units == ds.units and back.variables == ds.variables
    for name in ds.variables:
        a, b = ds.values(name), back.values(name)
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert a[~np.isnan(a)].tobytes() == b[~np.isnan(b)].tobytes()


# ---------------------------------------------------------------------------
# write_panel against the csv.writer reference
# ---------------------------------------------------------------------------

def test_write_panel_keeps_the_sign_of_zero(tmp_path):
    ds = PanelDataset(["a"], quarter_range(QuarterIndex(2000, 1),
                                           QuarterIndex(2000, 3)),
                      {"x": [[0.0, -0.0, 1.5]]})
    write_panel(ds, tmp_path / "x.csv")
    rows = (tmp_path / "x.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["0.0", "-0.0", "1.5"]


_PAYLOAD_NAN = np.array([0x7FF8_0000_0000_0001, -1], dtype=np.int64).view(float)
# signed zeros, subnormal and largest magnitudes, the values at repr's switch
# to exponent notation, and NaN with other signs and payloads
_EDGE = st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308,
                         -1.7976931348623157e308, 1e16, 9999999999999998.0,
                         1e-4, 9.9e-05, math.nan, -math.nan,
                         *_PAYLOAD_NAN.tolist()])
_QUOTED = st.one_of(st.sampled_from(["b,c", 'say "hi"', " lead"]),
                    st.text('ab ,"', min_size=1, max_size=3))


@st.composite
def _edge_panel(draw):
    regions = draw(st.lists(_QUOTED, min_size=1, max_size=3, unique=True))
    names = draw(st.lists(_QUOTED, min_size=1, max_size=3, unique=True))
    n = draw(st.integers(2, 6))
    cell = st.one_of(_EDGE, st.floats())
    series = {name: np.array(draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                           min_size=len(regions),
                                           max_size=len(regions))))
              for name in names}
    series[names[0]][0, :2] = [0.0, -0.0]
    start = QuarterIndex(draw(st.integers(1990, 2010)), draw(st.integers(1, 4)))
    units = {names[0]: draw(st.sampled_from(["index", "a,b"]))}
    return PanelDataset(regions, quarter_range(start, start.offset(n - 1)),
                        series, units)


@settings(max_examples=200, deadline=None)
@given(ds=_edge_panel(), missing=st.sampled_from(["", "NA", "N,A", '"']),
       data=st.data())
def test_write_panel_writes_the_reference_bytes(ds, missing, data,
                                                tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bytes")
    schema = PanelSchema(missing=missing)
    comments = ("climpanel test", "config sha256 0123")
    write_panel(ds, tmp / "panel.csv", schema, header_comments=comments)
    write_panel_csv(ds, tmp / "reference.csv", schema, header_comments=comments)
    assert (tmp / "panel.csv").read_bytes() == (tmp / "reference.csv").read_bytes()
    # a copy of the first series with some signs flipped shares its cells:
    # 0.0 beside -0.0, and NaNs of either sign with the same payloads
    first = ds.values(ds.variables[0])
    flip = data.draw(st.lists(st.booleans(), min_size=first.size,
                              max_size=first.size))
    ds = with_series(ds, "flipped copy",
                     np.where(np.reshape(flip, first.shape), -first, first))
    # files of one call: a series may sit in several, in any column order
    names = st.lists(st.sampled_from(ds.variables), min_size=1, unique=True)
    files = {tmp / f"file{k}.csv": data.draw(names)
             for k in range(data.draw(st.integers(1, 4)))}
    write_panel(ds, files, schema, header_comments=comments)
    for path, series in files.items():
        write_panel_csv(subset(ds, series), tmp / "reference.csv", schema,
                        header_comments=comments)
        assert path.read_bytes() == (tmp / "reference.csv").read_bytes(), series


def test_write_panel_holds_one_region_at_a_time(tmp_path):
    # each region's values are formatted and written before the next
    # region's: 16 times the regions must not hold much more at once
    peaks = []
    write = oracles.peak_traced(write_panel, peaks)
    for n_regions in (4, 64):
        ds = make_panel(n_regions, n_quarters=252, seed=n_regions)
        for k in range(6):
            ds = with_series(ds, f"s{k}", ds.values("temp") * k - ds.values("cpi"))
        files = {tmp_path / f"{n_regions}_{k}.csv": ds.variables[k:k + 4]
                 for k in range(5)}
        write(ds, files)
    assert peaks[1] < 2 * peaks[0], peaks


# ---------------------------------------------------------------------------
# the column reader against the row loop
# ---------------------------------------------------------------------------

# numpy 2.4 behaviours the column reader relies on, each pinned by name, so
# that another numpy fails here rather than as a disagreement below

def test_numpy_loadtxt_reads_plus_nan_as_nan():
    # _plain_panel's stand-in for a 3-character missing token
    got = np.loadtxt(["+nan", "-99"], delimiter=",", comments=None, ndmin=1)
    assert np.isnan(got[0]) and got[1] == -99


def test_numpy_loadtxt_strips_blanks_around_numbers_and_skips_empty_lines():
    # every blank str.strip drops that a line read with universal newlines
    # can hold; the row loop reads these cells stripped
    blanks = [c for c in map(chr, range(0x110000))
              if c.isspace() and c not in "\n\r"]
    dtype = [("year", np.int64), ("cpi", float)]
    for c in blanks:
        rows = np.loadtxt(["", f"{c}2000{c},{c}1.5{c}", "", "2001,-0.0", ""],
                          delimiter=",", comments=None, ndmin=1, dtype=dtype)
        assert rows["year"].tolist() == [2000, 2001], repr(c)
        assert rows["cpi"].tobytes() == np.array([1.5, -0.0]).tobytes(), \
            repr(c)


def test_numpy_loadtxt_refuses_a_float_integer():
    # a year such as 2000.0 must fall back to the row loop, not truncate
    with pytest.raises(ValueError):
        np.loadtxt(["2000.0"], dtype=np.int64, delimiter=",")


def test_numpy_unique_returns_the_inverse_in_the_input_shape():
    # _write_rows indexes its formatted cells with the inverse as it is
    block = np.array([[1.5, -0.0, 1.5], [0.0, np.nan, -0.0]]).view(np.int64)
    bits, inverse = np.unique(block, return_inverse=True)
    assert inverse.shape == block.shape
    assert (bits[inverse] == block).all()


def _lines(path):
    """A panel file's lines, decoded the way load_panel decodes them."""
    with open(path, encoding="utf-8-sig") as fh:
        return fh.readlines()


def _both_readers(path, schema=None):
    """(load_panel's result, the row loop's alone): each a panel, or the
    class and message of what it raised."""
    schema = schema or PanelSchema()
    lines = _lines(path)
    outcomes = []
    for load in (lambda: load_panel(path, schema),
                 lambda: _row_panel(path, lines, _header(path, lines, schema),
                                    schema)):
        try:
            outcomes.append(load())
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


def _assert_same_outcome(fast, loop):
    if not isinstance(loop, PanelDataset):
        assert fast == loop
        return
    assert isinstance(fast, PanelDataset), fast
    assert fast.regions == loop.regions and fast.time == loop.time
    assert fast.units == loop.units and fast.variables == loop.variables
    for name in loop.variables:
        # bytes, so NaN positions, NaN bits and the sign of zero all count
        assert fast.values(name).tobytes() == loop.values(name).tobytes()


# cells the two parsers might read differently, or that the loop rejects
_TOKEN = st.sampled_from(["1.5", "-0.0", "0", "1e3", ".5", "5.", "+2", "", "NA",
                          "nan", "inf", "-Infinity", "1e400", "1e-400", "1_000",
                          "0x10", "abc", "\u0661", " 1", "1.5\xa0", '"1.5"'])


# the tokens both parsers read as the same number
_NUMBER = st.sampled_from(["1.5", "-0.0", "0", "1e3", ".5", "5.", "+2",
                           "1e-400", " 1", "1.5\xa0"])


@st.composite
def _grid_text(draw):
    """A full region x quarter grid written as CSV, perhaps shuffled, with
    a row dropped or repeated, a year or quarter damaged, or a comment or
    blank line put in. Half the grids are padded instead, to reach the
    column reader: one kind of blank around some number cells, numbers
    only, and at most a row dropped or repeated, a quarter damaged or a
    blank line put in."""
    regions = draw(st.lists(st.sampled_from(["a", "b", "MX01", "nan", "é",
                                             "Nuevo León", "Ciudad de México",
                                             "San  Luis", " c", "d ", "e\tf"]),
                            min_size=1, max_size=3, unique=True))
    start = draw(st.integers(1990, 2010)) * 4 + draw(st.integers(0, 3))
    n = draw(st.integers(1, 6))
    cols = draw(st.sampled_from([["region", "year", "quarter", "cpi"],
                                 ["cpi", "quarter", "region", "food", "year"]]))
    padded = draw(st.booleans())
    pad = st.sampled_from(["", draw(st.sampled_from(_BLANKS))] if padded
                          else [""])
    token = _NUMBER if padded else _TOKEN
    lines = []
    for region in regions:
        for code in range(start, start + n):
            cell = {"region": region, "year": str(code // 4),
                    "quarter": str(code % 4 + 1)}
            lines.append(",".join(
                cell[c] if c == "region" else
                draw(pad) + (cell.get(c) or draw(token)) + draw(pad)
                for c in cols))
    lines = draw(st.permutations(lines))
    i = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["none", "drop", "repeat", "quarter",
                                 "blank"] if padded else
                                ["none", "none", "drop", "repeat", "year",
                                 "quarter", "comment", "blank"]))
    if edit == "drop":
        del lines[i]
    elif edit == "repeat":
        lines.insert(i, lines[i])
    elif edit in ("year", "quarter"):
        j = cols.index(edit)
        cells = lines[i].split(",")
        cells[j] = draw(st.sampled_from(["1962.0", "1e3", "5", "0", "-1", "x",
                                         "+2001", "0002", "", "\u01fe2"]))
        lines[i] = ",".join(cells)
    elif edit in ("comment", "blank"):
        lines.insert(i, "# note" if edit == "comment" else "")
    head = draw(st.sampled_from(["", "# unit cpi = index\n", "\n# c\n"]))
    return head + "\n".join([",".join(cols), *lines]) + draw(
        st.sampled_from(["", "\n"]))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_load_panel_agrees_with_the_row_loop(data, tmp_path_factory):
    """load_panel gives the row loop's panel bit for bit, or raises what it
    raises, on near-schema text, on full grids of edge cells and on
    write_panel's own files, with any line end and with or without a
    byte-order mark."""
    schema = PanelSchema(missing=data.draw(st.sampled_from(["", "NA", "nan"])))
    path = tmp_path_factory.mktemp("diff") / "panel.csv"
    source = data.draw(st.sampled_from(["text", "grid", "written"]))
    if source == "written":
        write_panel(data.draw(_panel()), path, schema)
        text = path.read_text(encoding="utf-8")
    else:
        text = data.draw(_panel_text() if source == "text" else _grid_text())
    end = data.draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    bom = data.draw(st.sampled_from(["", "\ufeff"]))
    path.write_text(bom + text.replace("\n", end), encoding="utf-8",
                    newline="")
    _assert_same_outcome(*_both_readers(path, schema))


def test_plain_files_take_the_column_reader(tmp_path):
    ds = make_panel(n_regions=4, n_quarters=9, seed=3)
    mat = np.array(ds.values("cpi"))
    mat[1, 2:4] = np.nan
    mat[0, 0] = -0.0
    ds = with_series(ds, "cpi", mat, "index")
    # state names with inner spaces, as in the paper's panel
    spaced = PanelDataset(["Nuevo León", "Baja California Sur",
                           "Ciudad de México", "r3"], ds.time, ds.series,
                          ds.units)
    for missing, panel in itertools.product(("", "NA", "nan", "-99"),
                                            (ds, spaced)):
        schema = PanelSchema(missing=missing)
        write_panel(panel, tmp_path / "lf.csv", schema,
                    header_comments=["made by a test"])
        text = (tmp_path / "lf.csv").read_bytes()
        # spreadsheet exports: CRLF line ends, a byte-order mark, or both
        (tmp_path / "crlf.csv").write_bytes(text.replace(b"\n", b"\r\n"))
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text)
        (tmp_path / "bom-crlf.csv").write_bytes(
            b"\xef\xbb\xbf" + text.replace(b"\n", b"\r\n"))
        for name in ("lf", "crlf", "bom", "bom-crlf"):
            path = tmp_path / f"{name}.csv"
            lines = _lines(path)
            head = _header(path, lines, schema)
            fast = _plain_panel(lines, head, schema)
            assert fast is not None, (missing, name)
            _assert_same_outcome(fast, _row_panel(path, lines, head, schema))
            assert panels_equal(fast, panel)
    # the rows of the row loop's table, with CRLF line ends
    path = tmp_path / "panel.csv"
    path.write_bytes("".join(row + "\r\n" for row in
                             ["region,year,quarter,cpi", *_ROWS]).encode())
    lines = _lines(path)
    head = _header(path, lines, PanelSchema())
    fast = _plain_panel(lines, head, PanelSchema())
    assert fast is not None
    _assert_same_outcome(fast, _row_panel(path, lines, head, PanelSchema()))


_ROWS = ["a,2000,1,1.5", "a,2000,2,2.5", "b,2000,1,3.5", "b,2000,2,4.5"]


def _rows_with(i, row):
    return "\n".join(["region,year,quarter,cpi", *_ROWS[:i], row, *_ROWS[i + 1:]])


# loadtxt strips the blanks around a number and skips empty lines, as the
# row loop does; only a region cell is kept raw
@pytest.mark.parametrize("text, missing", [
    pytest.param(_rows_with(1, "a,2000,2, 2.5"), "", id="padded"),
    pytest.param(_rows_with(1, "a,2000 ,2,2.5"), "", id="padded-year"),
    pytest.param(_rows_with(1, "a,\t2000,2\t,\t2.5\t"), "", id="tab"),
    pytest.param(_rows_with(1, "a,2000\xa0,\xa02,2.5\xa0"), "", id="nbsp"),
    pytest.param(_rows_with(1, "a,\u30002000,2,\u30002.5"), "",
                 id="ideographic-space"),
    # int() alone keeps these; the row loop strips the cell first
    pytest.param(_rows_with(1, "a,\x1c2000\x1f,2,2.5"), "",
                 id="separator-year"),
    pytest.param(_rows_with(1, "a,2000,2, 2.5 ").replace("1.5", "NA"), "NA",
                 id="padded-number-beside-token"),
    pytest.param("\n\n".join(["region,year,quarter,cpi", *_ROWS]) + "\n\n",
                 "", id="blank-lines"),
    pytest.param("\n".join(["region,year,quarter,cpi",
                             *(row.replace("a,", "a\tz,").replace("b,", "b c,")
                               for row in _ROWS)]), "", id="inner-tab-region"),
])
def test_padded_numbers_and_blank_lines_take_the_column_reader(tmp_path, text,
                                                               missing):
    path = tmp_path / "panel.csv"
    path.write_bytes(text.encode("utf-8"))
    schema = PanelSchema(missing=missing)
    lines = _lines(path)
    fast = _plain_panel(lines, _header(path, lines, schema), schema)
    assert fast is not None
    _, loop = _both_readers(path, schema)
    assert isinstance(loop, PanelDataset)
    _assert_same_outcome(fast, loop)


# one file per form the column reader hands to the row loop; None where the
# loop reads a panel, else the loop's message
@pytest.mark.parametrize("text, missing, message", [
    pytest.param(_rows_with(1, 'a,2000,2,"2.5"'), "", None, id="quoted"),
    # CRLF alone is plain (see test_plain_files_take_the_column_reader);
    # with a quoted cell the file still goes to the loop, read as its LF copy
    pytest.param("\r\n".join(["region,year,quarter,cpi", _ROWS[0],
                               'a,2000,2,"2.5"', *_ROWS[2:]]) + "\r\n",
                 "", None, id="crlf"),
    pytest.param("\n".join(["region,year,quarter,cpi", *_ROWS[:2],
                             *(" " + row for row in _ROWS[2:])]), "", None,
                 id="padded-region"),
    pytest.param("\n".join(["region,year,quarter,cpi", *_ROWS[:2],
                             *(row.replace(",", " ,", 1)
                               for row in _ROWS[2:])]),
                 "", None, id="region-padded-after"),
    pytest.param(_rows_with(1, "a,2000,2,1_000"), "", None, id="underscore"),
    pytest.param(_rows_with(1, "a,2000,2,infinity"), "",
                 "panel.csv:3: cannot parse cpi='infinity' as a finite number",
                 id="infinity"),
    pytest.param(_rows_with(2, "b,2000,1,nan"), "",
                 "panel.csv:4: cannot parse cpi='nan' as a finite number",
                 id="nan"),
    pytest.param(_rows_with(3, "b,2000,2,1e400"), "",
                 "panel.csv:5: cannot parse cpi='1e400' as a finite number",
                 id="overflow"),
    pytest.param(_rows_with(1, "a,2000.0,2,2.5"), "",
                 "panel.csv:3: bad year/quarter: invalid literal for int() "
                 "with base 10: '2000.0'", id="float-year"),
    pytest.param(_rows_with(1, "a,2000,5,2.5"), "",
                 "panel.csv:3: bad year/quarter: quarter must be in 1..4, "
                 "got 5", id="quarter-5"),
    pytest.param(_rows_with(1, "a,2000,2"), "",
                 "panel.csv:3: 3 fields where the header has 4", id="short"),
    # loadtxt's integer parser read this year as 4622000, a full grid
    pytest.param("region,year,quarter,cpi\na,\u01fe2000,1,1.5\n"
                 "b,\u01fe2000,1,2.5\n", "",
                 "panel.csv:2: bad year/quarter: invalid literal for int() "
                 "with base 10: '\u01fe2000'", id="letter-year"),
    pytest.param(_rows_with(1, "a,2000,2,2.5\na,2000,2,2.5"), "", None,
                 id="duplicate"),
    pytest.param(_rows_with(1, "a,2000,2,2.5\na,2000,2,2.6"), "",
                 "panel.csv: conflicting duplicate for (a, 2000Q2, cpi): 2.5 "
                 "vs 2.6", id="conflict"),
    pytest.param(_rows_with(1, "a,2000,3,2.5"), "",
                 "missing quarters: (a, 2000Q2), (b, 2000Q3)", id="hole"),
    pytest.param("# unit cpi = index\nregion,year,quarter,cpi\n", "",
                 "panel.csv: no data rows", id="header-only"),
    # an empty body stops before loadtxt, which would warn that it read no
    # data; a line of blanks is a short row to loadtxt, not a skipped one
    pytest.param("region,year,quarter,cpi\n\n\n", "",
                 "panel.csv: no data rows", id="header-then-blank-lines"),
    pytest.param("region,year,quarter,cpi\n\n \n\t\n\u3000\n\n", "",
                 "panel.csv: no data rows", id="header-then-whitespace-lines"),
    # a token as long as its nan stand-in is counted, any other by the
    # length it adds; a nan or inf literal beside a token still goes to
    # the loop
    pytest.param(_rows_with(1, "a,2000,2,nan").replace("1.5", "-99"), "-99",
                 "panel.csv:3: cannot parse cpi='nan' as a finite number",
                 id="3-char-token-and-nan"),
    pytest.param(_rows_with(2, "b,2000,1,inf").replace("1.5", "-99"), "-99",
                 "panel.csv:4: cannot parse cpi='inf' as a finite number",
                 id="3-char-token-and-inf"),
    pytest.param(_rows_with(2, "b,2000,1,nan").replace("1.5", ""), "",
                 "panel.csv:4: cannot parse cpi='nan' as a finite number",
                 id="blank-and-nan"),
    pytest.param(_rows_with(1, "a,2000,2,-inf").replace("1.5", "NA"), "NA",
                 "panel.csv:3: cannot parse cpi='-inf' as a finite number",
                 id="token-and-inf"),
    pytest.param(_rows_with(1, "a,2000,2, NA"), "NA", None, id="padded-token"),
    # the loop reads a padded token as missing, loadtxt as the number
    pytest.param(_rows_with(1, "a,2000,2,\t-99 "), "-99", None,
                 id="padded-number-token"),
    # the loop compares stripped cells with the token, so this one never
    # matches and a blank cell is an error
    pytest.param(_rows_with(1, "a,2000,2, "), " ",
                 "panel.csv:3: cannot parse cpi='' as a finite number",
                 id="blank-token"),
    pytest.param(_rows_with(1, 'a,2000,2,"N,A"'), "N,A", None,
                 id="token-with-comma"),
])
def test_files_that_are_not_plain_go_to_the_row_loop(tmp_path, text, missing,
                                                     message):
    path = tmp_path / "panel.csv"
    path.write_bytes(text.encode("utf-8"))
    schema = PanelSchema(missing=missing)
    lines = _lines(path)
    assert _plain_panel(lines, _header(path, lines, schema), schema) is None
    fast, loop = _both_readers(path, schema)
    _assert_same_outcome(fast, loop)
    if message is None:
        assert isinstance(loop, PanelDataset)
    else:
        assert loop[1].endswith(message)
