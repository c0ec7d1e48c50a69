"""The package's public surface: its exported names and its error types."""
import re
import types
from pathlib import Path

import numpy as np
import pytest

import climpanel
from climpanel import cli
from climpanel import (
    ARDLSpec,
    HACSpec,
    LPSpec,
    PanelSchema,
    QuarterIndex,
    annualize,
    confidence_band,
    estimate_irf,
    historical_norm,
    quarter_range,
    seasonal_shock,
)
from climpanel.ardl import default_block
from climpanel.errors import ClimPanelError, ConfigError


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
    assert [name for name in climpanel.__all__
            if not re.search(rf"\b{name}\b", readme)] == []
    # and the other way: the README lists no name the package lacks
    listed = re.search(r"^Public names \(.*?\n\n", readme,
                       re.MULTILINE | re.DOTALL)
    names = set(re.findall(r"`(\w+)`", listed.group()))
    assert sorted(names - set(climpanel.__all__)) == []


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    table = readme.split("## Configuration reference", 1)[1].split("\n## ")[0]
    rows = re.findall(r"^\| (\w+) \| ([\w /]+?) \|", table, re.MULTILINE)
    listed = [(section, key) for section, keys in rows if section != "Section"
              for key in keys.split(" / ")]
    assert len(set(listed)) == len(listed)
    keys = {(section, key) for section, cls in cli._SECTIONS.items()
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
    pytest.param(lambda: seasonal_shock(None, (), "monsoon", "hot"),
                 id="season"),
    pytest.param(lambda: seasonal_shock(None, (), "summer", "humid"),
                 id="polarity"),
    pytest.param(lambda: confidence_band(None, 1.0), id="band-level"),
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
    (lambda: LPSpec("cpi", ("shock",), sample=("2002-03", "2010Q4")),
     "cannot parse quarter label '2002-03' (want e.g. 2002Q1)"),
])
def test_quarter_errors_keep_their_messages(make, message):
    with pytest.raises(ConfigError) as info:
        make()
    assert str(info.value) == message
