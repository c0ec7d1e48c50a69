"""The package's public surface: its exported names and its error types."""
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
    confidence_band,
    estimate_irf,
    historical_norm,
    quarter_range,
    seasonal_shock,
    select_lag_bic,
    weighted_aggregate,
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


@pytest.mark.parametrize("make", [
    lambda: LPSpec("cpi", ("shock",), lags=-1),
    lambda: LPSpec("cpi", ("shock",), level=1.0),
    lambda: ARDLSpec("cpi", ("x",), p=-1),
    lambda: ARDLSpec("cpi", ()),
    lambda: HACSpec(-1),
    lambda: historical_norm(np.zeros((1, 8)), 0),
    lambda: annualize(0.5, 0),
    lambda: historical_norm(np.zeros((1, 8)), 1, mode="monthly"),
    lambda: seasonal_shock(None, (), "monsoon", "hot"),
    lambda: seasonal_shock(None, (), "summer", "humid"),
    lambda: weighted_aggregate(np.ones(3), [1.0], ["a"]),
    lambda: weighted_aggregate(np.ones((2, 3)), [-1.0, 2.0], ["a", "a"]),
    lambda: confidence_band(None, 1.0),
    lambda: select_lag_bic(None, ARDLSpec("cpi", ("x",)), candidates=()),
    lambda: quarter_range(QuarterIndex(2001, 1), QuarterIndex(2000, 4)),
    lambda: QuarterIndex(2000, 5),
    lambda: QuarterIndex.parse("2002-03"),
    lambda: LPSpec("cpi", ("shock",), sample=("2002Q1", "2010-04")),
    lambda: ARDLSpec("cpi", ("x",), sample=("2002-03", "2010Q4")),
    lambda: estimate_irf(None, LPSpec("cpi", ("shock",),
                                      sample=("2002-03", "2010Q4"))),
    # an ARDL grid cell as the ardl command builds it
    lambda: ARDLSpec("cpi", default_block("temperature", "precipitation", 2),
                     m=2, sample=("2002-03", "2010Q4")),
    lambda: LPSpec("cpi", ()),
    lambda: LPSpec("cpi", ("shock", "other", "shock")),
    # a bare string would run once per character
    lambda: LPSpec("cpi", "shock"),
    lambda: PanelSchema(year="quarter"),
    lambda: PanelSchema(region="year"),
], ids=["lp-lags", "lp-level", "ardl-p", "ardl-block", "hac-bandwidth",
        "norm-m", "annualize-m", "norm-mode", "season", "polarity",
        "aggregate-shape", "aggregate-weights", "band-level",
        "bic-candidates", "quarter-range", "quarter-number", "quarter-label",
        "lp-sample", "ardl-sample", "irf-sample", "suite-sample",
        "lp-shocks-empty", "lp-shocks-repeated", "lp-shocks-string",
        "schema-year", "schema-region"])
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
