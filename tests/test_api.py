"""The package's public surface: its exported names and its error types."""
import itertools
import os
import re
import types
from pathlib import Path

import numpy as np
import pytest

import climpanel
from climpanel import (
    ARDLSpec,
    HACSpec,
    LPSpec,
    PanelSchema,
    QuarterIndex,
    annualize,
    attach_anomaly_features,
    estimate_ardl,
    estimate_irf,
    quarter_range,
)
from climpanel.ardl import default_block
from climpanel.climate import historical_norm, seasonal_shock
from climpanel.config import _SECTIONS
from climpanel.errors import ClimPanelError, ConfigError, SpecError


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from climpanel import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(climpanel.__all__)
    assert len(set(climpanel.__all__)) == len(climpanel.__all__)
    assert not [name for name, obj in namespace.items()
                if isinstance(obj, types.ModuleType)]


def test_every_public_name_is_in_the_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    # the "Public names" paragraph lists each exported name once, and no
    # other: a name mentioned elsewhere in the README is not listed
    listed = re.search(r"^Public names \(.*?\n\n", readme,
                       re.MULTILINE | re.DOTALL)
    assert (sorted(re.findall(r"`(\w+)`", listed.group()))
            == sorted(climpanel.__all__))


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    table = readme.split("## Configuration reference", 1)[1].split("\n## ")[0]
    rows = re.findall(r"^\| (\w+) \| ([\w /]+?) \|", table, re.MULTILINE)
    listed = [(section, key) for section, keys in rows if section != "Section"
              for key in keys.split(" / ")]
    assert len(set(listed)) == len(listed)
    keys = {(section, key) for section, cls in _SECTIONS.items()
            for key in cls.__annotations__}
    assert sorted(set(listed) - keys) == []
    assert sorted(keys - set(listed)) == []


@pytest.mark.parametrize("make", [
    pytest.param(lambda: LPSpec("cpi", ("shock",), lags=-1), id="lp-lags"),
    pytest.param(lambda: LPSpec("cpi", ("shock",), level=1.0),
                 id="lp-level"),
    pytest.param(lambda: ARDLSpec("cpi", ("x",), p=-1), id="ardl-p"),
    pytest.param(lambda: ARDLSpec("cpi", ()), id="ardl-block"),
    pytest.param(lambda: HACSpec(-1), id="hac-bandwidth"),
    pytest.param(lambda: historical_norm(np.zeros((1, 8)), 0), id="norm-m"),
    pytest.param(lambda: annualize(0.5, 0), id="annualize-m"),
    pytest.param(lambda: historical_norm(np.zeros((1, 8)), 1,
                                         mode="monthly"), id="norm-mode"),
    pytest.param(lambda: seasonal_shock(None, (), "summer", "humid"),
                 id="polarity"),
    pytest.param(lambda: quarter_range(QuarterIndex(2001, 1),
                                       QuarterIndex(2000, 4)),
                 id="quarter-range"),
    pytest.param(lambda: QuarterIndex(2000, 5), id="quarter-number"),
    pytest.param(lambda: QuarterIndex.parse("2002-03"), id="quarter-label"),
    pytest.param(lambda: LPSpec("cpi", ("shock",),
                                sample=("2002Q1", "2010-04")),
                 id="lp-sample"),
    pytest.param(lambda: ARDLSpec("cpi", ("x",),
                                  sample=("2002-03", "2010Q4")),
                 id="ardl-sample"),
    pytest.param(lambda: estimate_irf(None, LPSpec(
        "cpi", ("shock",), sample=("2002-03", "2010Q4"))), id="irf-sample"),
    # an ARDL grid cell as the ardl command builds it
    pytest.param(lambda: ARDLSpec(
        "cpi", default_block("temperature", "precipitation", 2), m=2,
        sample=("2002-03", "2010Q4")), id="suite-sample"),
    # a sample is a (start, end) pair: one label or three are not
    pytest.param(lambda: LPSpec("cpi", ("shock",), sample=("2002Q3",)),
                 id="lp-sample-one"),
    pytest.param(lambda: LPSpec("cpi", ("shock",),
                                sample=("2002Q3", "2005Q1", "2009Q4")),
                 id="lp-sample-three"),
    pytest.param(lambda: ARDLSpec("cpi", ("x",), sample=("2002Q3",)),
                 id="ardl-sample-one"),
    pytest.param(lambda: ARDLSpec("cpi", ("x",),
                                  sample=("2002Q3", "2005Q1", "2009Q4")),
                 id="ardl-sample-three"),
    pytest.param(lambda: LPSpec("cpi", ("shock",), horizons=()),
                 id="lp-horizons-empty"),
    pytest.param(lambda: LPSpec("cpi", ("shock",), horizons=(0, 0)),
                 id="lp-horizons-repeated"),
    pytest.param(lambda: LPSpec("cpi", ()), id="lp-shocks-empty"),
    pytest.param(lambda: LPSpec("cpi", ("shock", "other", "shock")),
                 id="lp-shocks-repeated"),
    # a bare string would run once per character
    pytest.param(lambda: LPSpec("cpi", "shock"), id="lp-shocks-string"),
    pytest.param(lambda: PanelSchema(year="quarter"), id="schema-year"),
    pytest.param(lambda: PanelSchema(region="year"), id="schema-region"),
])
def test_spec_errors_are_typed(make):
    with pytest.raises(ClimPanelError) as info:
        make()
    # still a ValueError for callers that catch that; a ConfigError for
    # the CLI's exit-code mapping
    assert isinstance(info.value, ValueError)
    assert isinstance(info.value, ConfigError)


@pytest.mark.parametrize("make, message", [
    (lambda: QuarterIndex(2000, 5), "quarter must be in 1..4, got 5"),
    # 2**61 * 4 overflows the int64 quarter codes of a panel's grid
    (lambda: QuarterIndex(2**61, 1), "year must be in -1152921504606846976.."
     "1152921504606846976, got 2305843009213693952"),
    (lambda: QuarterIndex(2**60, 4).offset(1), "year must be in "
     "-1152921504606846976..1152921504606846976, got 1152921504606846977"),
    (lambda: LPSpec("cpi", ("shock",), sample=("2002-03", "2010Q4")),
     "cannot parse quarter label '2002-03' (want e.g. 2002Q1)"),
])
def test_quarter_errors_keep_their_messages(make, message):
    with pytest.raises(ConfigError) as info:
        make()
    assert str(info.value) == message


# a float year used to print as 2000.5Q1, and step to 2000.0Q4.0; a bool
# quarter printed as 2000QTrue; a str year raised a bare TypeError
@pytest.mark.parametrize("year, quarter, message", [
    (2000.5, 1, "year must be an integer, got 2000.5"),
    (2000, True, "quarter must be an integer, got True"),
    ("2000", 1, "year must be an integer, got '2000'"),
    (2000, 1.0, "quarter must be an integer, got 1.0"),
])
def test_quarter_fields_must_be_integers(year, quarter, message):
    with pytest.raises(SpecError) as info:
        QuarterIndex(year, quarter)
    assert str(info.value) == message


def _lp_panel():
    return climpanel.PanelDataset(
        ["a", "b"], quarter_range(QuarterIndex(2000, 1), QuarterIndex(2004, 4)),
        {"price": np.ones((2, 20)), "shock": np.zeros((2, 20))})


# each count used to end in a bare TypeError deep in an estimator, or, for
# ARDLSpec.m, to reach the long-run table as 2.5; below its bound, each
# count's message names the bound and the value
@pytest.mark.parametrize("make, message", [
    (lambda: estimate_irf(_lp_panel(),
                          LPSpec("price", ("shock",), lags=1.5)),
     "lags must be an integer, got 1.5"),
    (lambda: estimate_irf(_lp_panel(),
                          LPSpec("price", ("shock",), horizons=(0.5,))),
     "each horizon must be an integer, got 0.5"),
    (lambda: estimate_irf(_lp_panel(),
                          LPSpec("price", ("shock",), hac=HACSpec(1.5))),
     "bandwidth must be an integer, got 1.5"),
    (lambda: LPSpec("price", ("shock",), lags=True),
     "lags must be an integer, got True"),
    (lambda: ARDLSpec("price", ("x",), p=1.0),
     "p must be an integer, got 1.0"),
    (lambda: ARDLSpec("price", ("x",), m=2.5),
     "m must be an integer, got 2.5"),
    (lambda: historical_norm(np.ones((1, 40)), 1.5),
     "m must be an integer, got 1.5"),
    (lambda: HACSpec(-1), "bandwidth must be >= 0, got -1"),
    (lambda: LPSpec("price", ("shock",), lags=-1),
     "lags must be >= 0, got -1"),
    (lambda: ARDLSpec("price", ("x",), p=-1), "p must be >= 0, got -1"),
    (lambda: ARDLSpec("price", ("x",), m=0), "m must be >= 1, got 0"),
    # a numpy integer is named by its value, not its repr
    (lambda: historical_norm(np.ones((1, 40)), np.int64(0)),
     "m must be >= 1, got 0"),
    # the public call keeps the norm's own check
    (lambda: attach_anomaly_features(_lp_panel(), "shock", m=0),
     "m must be >= 1, got 0"),
])
def test_counts_must_be_integers(make, message):
    with pytest.raises(SpecError) as info:
        make()
    assert str(info.value) == message


def test_counts_may_be_numpy_integers():
    spec = LPSpec("price", ("shock",), horizons=(np.int64(0),),
                  lags=np.int32(1), hac=HACSpec(np.int64(2)))
    (res,) = estimate_irf(_lp_panel(), spec)
    assert [r.horizon for r in (*res.responses, *res.failures)] == [0]
    assert ARDLSpec("price", ("x",), p=np.int64(1), m=np.int64(2)).m == 2
    assert np.array_equal(historical_norm(np.ones((1, 12)), np.int64(1)),
                          historical_norm(np.ones((1, 12)), 1), equal_nan=True)


# each used to end in a bare TypeError, or, for small_sample, to be read
# as true; a numpy array's truth value is ambiguous, and a record must hash
@pytest.mark.parametrize("make, message", [
    (lambda: LPSpec("price", ("shock",), horizons=3),
     "horizons must be a tuple or list, got 3"),
    (lambda: LPSpec("price", ("shock",), level="0.9"),
     "level must be a number, got '0.9'"),
    (lambda: HACSpec(2, "no"),
     "small_sample must be one of (True, False), got 'no'"),
    (lambda: LPSpec("price", ("shock",), horizons=np.arange(2)),
     "horizons must be a tuple or list, got array([0, 1])"),
    (lambda: LPSpec("price", ("shock",), level=np.array([0.9, 0.8])),
     "level must be a number, got array([0.9, 0.8])"),
    (lambda: HACSpec(2, np.array([True, False])),
     "small_sample must be one of (True, False), got array([ True, False])"),
    (lambda: LPSpec("price", np.array(["a", "b"])),
     "shocks must be a tuple or list, got array(['a', 'b'], dtype='<U1')"),
    (lambda: ARDLSpec("price", np.array(["a", "b"])),
     "block must be a tuple or list, got array(['a', 'b'], dtype='<U1')"),
    (lambda: ARDLSpec("price", ("x",), sample=np.array(["2003Q1", "2020Q4"])),
     "sample must be a tuple or list, got "
     "array(['2003Q1', '2020Q4'], dtype='<U6')"),
    (lambda: estimate_irf(_lp_panel(), LPSpec(
        "price", ("shock",), sample=np.array(["2000Q1", "2004Q4"]))),
     "sample must be a tuple or list, got "
     "array(['2000Q1', '2004Q4'], dtype='<U6')"),
    (lambda: LPSpec("price", ("shock",), fixed_effects=np.array(["region"])),
     "fixed_effects must be a tuple or list, got array(['region'], "
     "dtype='<U6')"),
    (lambda: LPSpec("price", ("shock",), lags=np.array([1, 2])),
     "lags must be an integer, got array([1, 2])"),
    # a 0-d array's shape is () like a numpy scalar's, but it does not hash
    (lambda: LPSpec("price", ("shock",), lags=np.array(2)),
     "lags must be an integer, got array(2)"),
    (lambda: LPSpec("price", ("shock",), level=np.array(0.9)),
     "level must be a number, got array(0.9)"),
    (lambda: HACSpec(2, np.array(True)),
     "small_sample must be one of (True, False), got array(True)"),
    (lambda: HACSpec(np.array(2)), "bandwidth must be an integer, got array(2)"),
    (lambda: ARDLSpec("price", ("x",), p=np.array(1)),
     "p must be an integer, got array(1)"),
    (lambda: ARDLSpec("price", ("x",), m=np.array(30)),
     "m must be an integer, got array(30)"),
    # a set or a dict has no order that repeats from run to run: a set
    # sample window or block used to follow PYTHONHASHSEED, and an
    # iterator of shocks, read twice, used to end in a bare TypeError
    (lambda: LPSpec("price", {"shock"}),
     "shocks must be a tuple or list, got {'shock'}"),
    (lambda: LPSpec("price", {"shock": 1}),
     "shocks must be a tuple or list, got {'shock': 1}"),
    (lambda: LPSpec("price", itertools.repeat("shock", 1)),
     "shocks must be a tuple or list, got repeat('shock', 1)"),
    (lambda: LPSpec("price", ("shock",), horizons={0}),
     "horizons must be a tuple or list, got {0}"),
    # each entry is checked before any two are compared
    (lambda: LPSpec("price", ("shock",), horizons=[np.arange(2), 3]),
     "each horizon must be an integer, got array([0, 1])"),
    (lambda: ARDLSpec("price", {"x"}),
     "block must be a tuple or list, got {'x'}"),
    (lambda: LPSpec("price", ("shock",), sample={"2000Q1"}),
     "sample must be a tuple or list, got {'2000Q1'}"),
    (lambda: climpanel.dataset.subset(_lp_panel(), {"price"}),
     "variables must be a tuple or list, got {'price'}"),
    (lambda: climpanel.write_panel(_lp_panel(), {os.devnull: {"price"}}),
     "each file's series must be a tuple or list, got {'price'}"),
    # a name is a string: an array entry used to end in numpy's ambiguous
    # truth value, and an array outcome in a bare unhashable TypeError
    (lambda: ARDLSpec("price", [np.array(["a", "b"]), "x"]),
     "each block entry must be a string, got array(['a', 'b'], dtype='<U1')"),
    (lambda: LPSpec("price", [np.array(["a", "b"]), "shock"]),
     "each shock must be a string, got array(['a', 'b'], dtype='<U1')"),
    (lambda: estimate_irf(_lp_panel(), LPSpec(np.array(["price"]),
                                              ("shock",))),
     "outcome must be a string, got array(['price'], dtype='<U5')"),
    (lambda: estimate_ardl(_lp_panel(), ARDLSpec(np.array(["price"]),
                                                 ("shock",))),
     "outcome must be a string, got array(['price'], dtype='<U5')"),
    # the public call keeps the choices checked inside its building blocks
    (lambda: attach_anomaly_features(_lp_panel(), "shock", m=1,
                                     mode="monthly"),
     "mode must be one of ('same-quarter', 'rolling'), got 'monthly'"),
    (lambda: attach_anomaly_features(_lp_panel(), "shock", m=1,
                                     polarities=("hot", "humid")),
     "polarity must be one of ('hot', 'wet', 'cold', 'dry'), got 'humid'"),
])
def test_spec_values_of_the_wrong_kind(make, message):
    with pytest.raises(SpecError) as info:
        make()
    assert str(info.value) == message
    assert HACSpec(2, np.False_).small_sample is np.False_


def test_tuples_lists_and_ranges_still_make_specs():
    spec = LPSpec("price", ["shock"], horizons=range(2), level=np.float64(0.9),
                  sample=["2000Q1", "2004Q4"])
    (res,) = estimate_irf(_lp_panel(), spec)
    assert [r.horizon for r in (*res.responses, *res.failures)] == [0, 1]
    # records hash by value, so a list in a field makes hash() a TypeError
    with pytest.raises(TypeError):
        hash(spec)
    assert hash(spec.replace(shocks=("shock",), horizons=(0, 1),
                             sample=("2000Q1", "2004Q4"))) is not None


@pytest.mark.parametrize("block, message", [
    ((), "block must list at least one entry"),
    (("a", "a"), "block lists 'a' twice"),
])
def test_ardl_block_errors_keep_their_messages(block, message):
    with pytest.raises(SpecError) as info:
        ARDLSpec("price", block)
    assert str(info.value) == message


def test_quarter_range_parses_labels():
    assert quarter_range("2000Q4", "2001Q1") == (QuarterIndex(2000, 4),
                                                 QuarterIndex(2001, 1))
    with pytest.raises(SpecError) as info:
        quarter_range(QuarterIndex(2000, 4), 2001)
    assert str(info.value) == ("cannot parse quarter label 2001 "
                               "(want e.g. 2002Q1)")


# a bare string used to run once per character: 'block names must be
# unique', or "unknown variable 'f'"
@pytest.mark.parametrize("make, message", [
    (lambda ds, tmp: ARDLSpec("price", "driver"),
     "block must be a tuple or list, got 'driver'"),
    (lambda ds, tmp: climpanel.dataset.subset(ds, "price"),
     "variables must be a tuple or list, got 'price'"),
    (lambda ds, tmp: climpanel.write_panel(ds, {tmp / "p.csv": "price"}),
     "each file's series must be a tuple or list, got 'price'"),
])
def test_series_names_are_not_a_bare_string(tmp_path, make, message):
    with pytest.raises(SpecError) as info:
        make(_lp_panel(), tmp_path)
    assert str(info.value) == message
    assert not (tmp_path / "p.csv").exists()


def test_panel_time_must_hold_quarters():
    # the entry is not parsed: a label is not a quarter
    with pytest.raises(SpecError) as info:
        climpanel.PanelDataset(["a"], [QuarterIndex(2000, 1), "2000Q2"],
                               {"x": [[1.0, 2.0]]})
    assert str(info.value) == ("time must hold QuarterIndex values, "
                               "got '2000Q2'")

