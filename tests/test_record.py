"""Records: immutable value classes that behave as frozen dataclasses."""
import copy
import operator
import pickle

import pytest

# every module that defines records, by name: a command loads only its own
import climpanel.ardl  # noqa: F401
import climpanel.config  # noqa: F401
import climpanel.dataset  # noqa: F401
import climpanel.localproj  # noqa: F401
import climpanel.regress  # noqa: F401
import climpanel.specs  # noqa: F401
from climpanel import HACSpec, ImpulseResponse, LPResult, LPSpec, QuarterIndex
from climpanel._record import Record
from climpanel.errors import SpecError


def _all_records(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_records(sub)


RECORDS = sorted(_all_records(), key=lambda cls: cls.__qualname__)

# Arguments that pass the checks of every record with a __post_init__; the
# other records are built from a placeholder string per required field.
CHECKED_EXAMPLES = {
    "QuarterIndex": {"year": 2002, "quarter": 1},
    "PanelSchema": {},
    "HACSpec": {"bandwidth": 3},
    "LPSpec": {"outcome": "cpi", "shocks": ("a", "b"), "horizons": (0, 1)},
    "ARDLSpec": {"outcome": "cpi", "block": ("a", "b")},
    "InputConfig": {},
    "AnomalyConfig": {},
    "LPConfig": {"shocks": ("x_{m}",)},
    "ARDLConfig": {},
    "SimulateConfig": {},
    "OutputConfig": {},
}


def _fields(cls) -> list[str]:
    return list(cls.__annotations__)


def _example(cls) -> dict:
    if "__post_init__" in cls.__dict__:
        # a new checked record needs an entry above
        return CHECKED_EXAMPLES[cls.__qualname__]
    return {name: f"{name}-value" for name in _fields(cls)
            if name not in cls.__dict__}


def test_every_record_is_found():
    assert len(RECORDS) == 23
    assert {QuarterIndex, HACSpec, LPSpec, LPResult} <= set(RECORDS)
    assert set(CHECKED_EXAMPLES) <= {cls.__qualname__ for cls in RECORDS}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_behaves_as_a_frozen_dataclass(cls):
    example = _example(cls)
    obj = cls(**example)
    names = _fields(cls)
    full = {name: getattr(obj, name) for name in names}
    # omitted fields take the class attribute of their name as default
    assert {name: full[name] for name in names if name not in example} == {
        name: getattr(cls, name) for name in names if name not in example}
    # vars() lists the fields in order: the config hash reads it
    assert list(vars(obj)) == names

    # positional, keyword and mixed construction agree
    assert cls(*full.values()) == obj
    assert cls(**full) == obj
    first, *rest = names
    assert cls(full[first], **{name: full[name] for name in rest}) == obj

    with pytest.raises(TypeError):
        cls(**full, no_such_field=1)
    with pytest.raises(TypeError):
        cls(full[first], **full)
    with pytest.raises(TypeError):
        cls(*full.values(), None)
    required = [name for name in names if name not in cls.__dict__]
    if required:
        with pytest.raises(TypeError):
            cls(**{name: value for name, value in full.items()
                   if name != required[-1]})
    with pytest.raises(TypeError):
        obj.replace(no_such_field=1)

    with pytest.raises(AttributeError):
        setattr(obj, first, full[first])
    with pytest.raises(AttributeError):
        obj.no_such_field = 1
    with pytest.raises(AttributeError):
        delattr(obj, first)
    assert vars(obj) == full

    values = tuple(full.values())
    assert hash(obj) == hash(cls(**full)) == hash(values)
    twin = type("Twin", (Record,), {"__annotations__": dict(cls.__annotations__)})
    assert obj != twin(**full)
    assert twin(**full) != obj
    assert obj != values
    if "__post_init__" not in cls.__dict__:   # any value passes
        assert cls(**{**full, first: "other"}) != obj

    for again in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj),
                  copy.copy(obj), obj.replace()):
        assert type(again) is cls
        assert again == obj
        assert vars(again) == full


def test_reprs_are_the_dataclass_text():
    assert repr(QuarterIndex(2002, 1)) == "QuarterIndex(year=2002, quarter=1)"
    assert repr(HACSpec(None)) == "HACSpec(bandwidth=None, small_sample=True)"
    result = LPResult("s", "cpi", (ImpulseResponse(0, 0.5, 0.1, (0.3, 0.7), 10),))
    assert repr(result) == (
        "LPResult(shock='s', outcome='cpi', responses=(ImpulseResponse("
        "horizon=0, estimate=0.5, se=0.1, band=(0.3, 0.7), nobs=10),), "
        "failures=())")


def test_replace_checks_the_copy():
    spec = LPSpec("cpi", ("a",))
    assert spec.replace(lags=2) == LPSpec("cpi", ("a",), lags=2)
    assert spec.lags == 8
    with pytest.raises(SpecError):
        spec.replace(horizons=())


def test_quarters_sort_by_year_then_quarter():
    quarters = [QuarterIndex(2003, 1), QuarterIndex(2002, 4),
                QuarterIndex(2002, 1), QuarterIndex(2003, 1)]
    assert sorted(quarters) == [QuarterIndex(2002, 1), QuarterIndex(2002, 4),
                                QuarterIndex(2003, 1), QuarterIndex(2003, 1)]
    a, b = QuarterIndex(2002, 4), QuarterIndex(2003, 1)
    assert (a < b, a <= b, a > b, a >= b) == (True, True, False, False)
    assert a <= a and a >= a and not a < a
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(a, (2002, 4))
