"""Settings: the records that config validation builds.

Each [lp] and [ardl] config value is checked by building the record its
command would run, so every command rejects a bad one. The records live
here, apart from the estimators, so that a command that fits nothing
loads none of regress, localproj and ardl; each of those modules imports
its own records back under their old names. The quarter and column-schema
records and the derived-series names live here too, apart from the panels,
so that building a config loads no numpy; dataset and climate import them
back the same way.

Each value rule has one checker, which the records, the library functions
and the config sections all call: check_count, check_name, check_list,
check_once, check_items and check_choice.
"""
from __future__ import annotations

import numbers
import re
from functools import total_ordering

from ._record import Record
from .errors import SpecError

_QUARTER_RE = re.compile(r"^(\d{4})Q([1-4])$")


def _is_array(value) -> bool:
    """True for an array, such as numpy's, of any shape, 0-d included: it
    has a shape and does not hash. A numpy scalar hashes; a list has no
    shape."""
    return hasattr(value, "shape") and type(value).__hash__ is None


def check_int(name: str, value) -> None:
    """SpecError unless value is an integer, a numpy one included: a bool
    is an int, and a float, even a whole one, would print as 2.0 or fail
    deep in an estimator. A numpy array has __index__ but is not one."""
    if (isinstance(value, bool) or not hasattr(value, "__index__")
            or _is_array(value)):
        raise SpecError(f"{name} must be an integer, got {value!r}")


def check_count(name: str, value, low: int) -> None:
    """SpecError unless value is an integer, as check_int has it, >= low."""
    check_int(name, value)
    if value < low:
        raise SpecError(f"{name} must be >= {low}, got {value}")


def check_name(name: str, value) -> None:
    """SpecError unless value is a string, such as a series name: an array
    does not hash, and any other value names no series."""
    if not isinstance(value, str):
        raise SpecError(f"{name} must be a string, got {value!r}")


def check_list(name: str, value) -> None:
    """SpecError unless value is a tuple, a list or a range: a set or a
    dict has no order that repeats from run to run, an iterator is spent
    once read, and a string or an array is one value."""
    if not isinstance(value, (tuple, list, range)):
        raise SpecError(f"{name} must be a tuple or list, got {value!r}")


def check_once(name: str, items) -> None:
    """SpecError if items lists an entry twice."""
    repeated = [x for i, x in enumerate(items) if x in items[:i]]
    if repeated:
        raise SpecError(f"{name} lists {repeated[0]!r} twice")


def check_items(name: str, items, each=None) -> None:
    """SpecError unless items is a list of at least one entry, each passing
    each(entry) and then listed once, so that no array is ever compared."""
    check_list(name, items)
    if not items:
        raise SpecError(f"{name} must list at least one entry")
    for entry in items if each else ():
        each(entry)
    check_once(name, items)


def check_choice(name: str, value, choices: tuple) -> None:
    """SpecError unless value equals one of choices; an array, which
    compares elementwise, never does."""
    if _is_array(value) or value not in choices:
        raise SpecError(f"{name} must be one of {choices}, got {value!r}")


# the largest year either way: every quarter code then fits an int64
_MAX_YEAR = 2**60


def _quarter_code(year: int, quarter: int) -> int:
    """A quarter's position on one integer axis, year * 4 + quarter - 1."""
    if quarter not in (1, 2, 3, 4):
        raise SpecError(f"quarter must be in 1..4, got {quarter!r}")
    if not -_MAX_YEAR <= year <= _MAX_YEAR:
        raise SpecError(f"year must be in -{_MAX_YEAR}..{_MAX_YEAR}, "
                        f"got {year!r}")
    return year * 4 + quarter - 1


def _quarter_at(code: int) -> QuarterIndex:
    """The quarter at a position on that axis: _quarter_code's inverse."""
    return QuarterIndex(code // 4, code % 4 + 1)


@total_ordering
class QuarterIndex(Record):
    """A calendar quarter, ordered lexicographically on (year, quarter)."""

    year: int
    quarter: int

    def __post_init__(self):
        check_int("year", self.year)
        check_int("quarter", self.quarter)
        _quarter_code(self.year, self.quarter)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.year, self.quarter) < (other.year, other.quarter)

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
        return _quarter_at(_quarter_code(self.year, self.quarter) + n)

    def __sub__(self, other: QuarterIndex) -> int:
        """Signed distance in quarters."""
        return (_quarter_code(self.year, self.quarter)
                - _quarter_code(other.year, other.quarter))


def quarter_range(start: QuarterIndex | str,
                  end: QuarterIndex | str) -> tuple[QuarterIndex, ...]:
    """Inclusive contiguous range of quarters; labels such as '2002Q1' are
    parsed."""
    start, end = QuarterIndex.parse(start), QuarterIndex.parse(end)
    n = end - start
    if n < 0:
        raise SpecError(f"empty quarter range {start}..{end}")
    return tuple(start.offset(i) for i in range(n + 1))


class PanelSchema(Record):
    """Column names for panel CSV files, and the token that marks an
    explicitly missing cell (default: an empty cell). Every column that is
    not region, year or quarter is a value column."""

    region: str = "region"
    year: str = "year"
    quarter: str = "quarter"
    missing: str = ""

    def __post_init__(self):
        keys = (self.region, self.year, self.quarter)
        if len(set(keys)) != 3:
            raise SpecError("region, year and quarter must name three "
                            f"different columns, got {keys}")


NORM_MODES = ("same-quarter", "rolling")

# Northern-hemisphere seasons of quarters 1..4.
SEASONS = ("winter", "spring", "summer", "autumn")


def derived_names(
    var: str,
    m: int | str,
    polarities: tuple[str, ...] = ("hot", "cold"),
    seasonal: bool = True,
) -> tuple[str, ...]:
    """Names of the series attach_anomaly_features derives from var, in
    its order: the norm, the anomaly, the anomaly's positive and negative
    parts, then with seasonal each season's shock of each polarity. m may
    be a placeholder such as "{m}"."""
    anom = f"{var}_anom_m{m}"
    names = (f"{var}_norm_m{m}", anom, f"{anom}_pos", f"{anom}_neg")
    if seasonal:
        names += tuple(f"{var}_{season}_{polarity}_m{m}"
                       for season in SEASONS for polarity in polarities)
    return names


DEFAULT_HORIZONS = tuple(range(9))


class HACSpec(Record):
    """Bartlett-kernel HAC settings: lag truncation L and the small-sample
    scaling T/(T-k) applied to the moment covariance when flagged. A
    bandwidth of None takes default_bandwidth of the periods in the
    estimation sample."""

    bandwidth: int | None
    small_sample: bool = True

    def __post_init__(self):
        if self.bandwidth is not None:
            check_count("bandwidth", self.bandwidth, 0)
        # in compares by ==, so numpy's bools pass, and so do 1 and 0
        check_choice("small_sample", self.small_sample, (True, False))


def check_window(window) -> tuple[QuarterIndex, QuarterIndex] | None:
    """The (start, end) quarters of a sample window, None for None; a
    SpecError for anything but a pair of quarter labels."""
    if window is None:
        return None
    check_list("sample", window)
    try:
        start, end = window
    except ValueError:
        raise SpecError("sample must be a (start, end) pair of quarter "
                        f"labels, got {window!r}") from None
    return QuarterIndex.parse(start), QuarterIndex.parse(end)


def check_fixed_effects(dims) -> None:
    """SpecError unless dims names only region and time, each at most once."""
    if not set(dims) <= {"region", "time"} or len(set(dims)) < len(dims):
        raise SpecError("fixed_effects may name region and time, each once, "
                        f"got {dims}")


class LPSpec(Record):
    """Local-projection settings for one outcome and its shocks."""

    outcome: str
    shocks: tuple[str, ...]
    horizons: tuple[int, ...] = DEFAULT_HORIZONS
    lags: int = 8
    fixed_effects: tuple[str, ...] = ("region", "time")
    hac: HACSpec | None = None   # bandwidth None: max(rule, h) per horizon
    level: float = 0.90
    sample: tuple | None = None

    def __post_init__(self):
        check_name("outcome", self.outcome)
        check_items("shocks", self.shocks,
                    lambda shock: check_name("each shock", shock))
        check_items("horizons", self.horizons,
                    lambda h: check_count("each horizon", h, 0))
        check_list("fixed_effects", self.fixed_effects)
        check_count("lags", self.lags, 0)
        if not isinstance(self.level, numbers.Real):
            raise SpecError(f"level must be a number, got {self.level!r}")
        if not 0.0 < self.level < 1.0:
            raise SpecError("level must be in (0, 1)")
        check_window(self.sample)


class ARDLSpec(Record):
    """One ARDL cell: outcome, signed-anomaly block, lag order, norm window.

    p = 0 drops the autoregressive lags and keeps only the contemporaneous
    block (then phi = 1 by construction); the pipeline default is p = 4.
    """

    outcome: str
    block: tuple[str, ...]
    p: int = 4
    m: int = 30
    sample: tuple | None = None
    hac: HACSpec | None = None   # None: classical standard errors

    def __post_init__(self):
        check_count("p", self.p, 0)
        check_count("m", self.m, 1)
        check_name("outcome", self.outcome)
        check_items("block", self.block,
                    lambda entry: check_name("each block entry", entry))
        check_window(self.sample)
