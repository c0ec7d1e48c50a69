"""The package's public surface: its exported names and its error types."""
import types

import pytest

import climpanel
from climpanel import (
    ARDLSpec,
    HACSpec,
    LPSpec,
    NormParams,
    TransformSpec,
    annualize,
)
from climpanel.errors import ClimPanelError, ConfigError


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from climpanel import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(climpanel.__all__)
    assert len(set(climpanel.__all__)) == len(climpanel.__all__)
    assert not [name for name, obj in namespace.items()
                if isinstance(obj, types.ModuleType)]


@pytest.mark.parametrize("make", [
    lambda: LPSpec("cpi", "shock", lags=-1),
    lambda: LPSpec("cpi", "shock", level=1.0),
    lambda: ARDLSpec("cpi", ("x",), p=-1),
    lambda: ARDLSpec("cpi", ()),
    lambda: HACSpec(-1),
    lambda: NormParams(0),
    lambda: TransformSpec("cube", "cpi"),
    lambda: annualize(0.5, 0),
], ids=["lp-lags", "lp-level", "ardl-p", "ardl-block", "hac-bandwidth",
        "norm-m", "transform-kind", "annualize-m"])
def test_spec_errors_are_typed(make):
    with pytest.raises(ClimPanelError) as info:
        make()
    # still a ValueError for callers that catch that; a ConfigError for
    # the CLI's exit-code mapping
    assert isinstance(info.value, ValueError)
    assert isinstance(info.value, ConfigError)
