"""Panel container, CSV round trips, log changes and summaries."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from climpanel import (
    LPSpec,
    PanelDataset,
    PanelSchema,
    QuarterIndex,
    build_lp_design,
    load_panel,
    merge_panels,
    quarter_range,
    subset,
    summary_stats,
    write_panel,
)
from climpanel.dataset import checked_log, shift
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
from oracles import quantile_type7, write_panel_csv


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
    assert QuarterIndex(2003, 4).next() == QuarterIndex(2004, 1)
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
            q = q.next()
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
            q = q.next()
    path = tmp_path / "panel.csv"
    write_csv(path, rows)
    with pytest.raises(GapError) as err:
        load_panel(path)
    assert ("b", "2003Q2") in err.value.gaps


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
    ds = ds.with_series("cpi", mat, "index")
    path = tmp_path / "out.csv"
    write_panel(ds, path)
    back = load_panel(path)
    assert back.equals(ds)
    # and a second loop is a fixed point
    path2 = tmp_path / "out2.csv"
    write_panel(back, path2)
    assert load_panel(path2).equals(back)


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
    vals = log_change(ds.with_series("flat", const), "flat")
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
    spec = LPSpec("cpi", "temp", lags=1, fixed_effects=())
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
    assert subset(ds).equals(ds)


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
    assert once.equals(twice)


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
    out = ds.with_series("plain", base).with_series("view", readonly_view)
    # series the dataset already holds are frozen, so they are shared
    assert out.values("cpi") is ds.values("cpi")
    assert np.shares_memory(subset(out, ["temp"]).values("temp"),
                            ds.values("temp"))
    # a writeable array, or a read-only view of one, is copied: mutating it
    # afterwards leaves the dataset unchanged
    base[:] = -1.0
    assert out.values("plain")[0, 0] == 0.0
    assert out.values("view")[0, 0] == 0.0


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


@st.composite
def _panel_text(draw):
    """CSV text near the schema: random headers (repeats included), rows
    of the right or wrong width, duplicates and holes, comments, blanks."""
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
                str(draw(st.integers(1990, 2010))),
                str(draw(st.integers(1, 4))),
                *[draw(_CELL) for _ in header[3:]],
            ]))
        elif kind == "cells":
            lines.append(",".join(draw(st.lists(_CELL, max_size=7))))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  "])))
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
@given(ds=_edge_panel(), missing=st.sampled_from(["", "NA", "N,A", '"']))
def test_write_panel_writes_the_reference_bytes(ds, missing, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bytes")
    schema = PanelSchema(missing=missing)
    comments = ("climpanel test", "config sha256 0123")
    write_panel(ds, tmp / "panel.csv", schema, header_comments=comments)
    write_panel_csv(ds, tmp / "reference.csv", schema, header_comments=comments)
    assert (tmp / "panel.csv").read_bytes() == (tmp / "reference.csv").read_bytes()
