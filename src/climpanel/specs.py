"""Estimator settings: the records that config validation builds.

Each [lp] and [ardl] config value is checked by building the record its
command would run, so every command rejects a bad one. The records live
here, apart from the estimators, so that a command that fits nothing
loads none of regress, localproj and ardl; each of those modules imports
its own records back under their old names.
"""
from __future__ import annotations

from ._record import Record
from .dataset import QuarterIndex
from .errors import SpecError

DEFAULT_HORIZONS = tuple(range(9))


class HACSpec(Record):
    """Bartlett-kernel HAC settings: lag truncation L and the small-sample
    scaling T/(T-k) applied to the moment covariance when flagged. A
    bandwidth of None takes default_bandwidth of the periods in the
    estimation sample."""

    bandwidth: int | None
    small_sample: bool = True

    def __post_init__(self):
        if self.bandwidth is not None and self.bandwidth < 0:
            raise SpecError("bandwidth must be >= 0")


def check_window(window) -> None:
    """Reject a sample window that is neither None nor a (start, end) pair
    of quarter labels."""
    if window is None:
        return
    try:
        start, end = window
    except (TypeError, ValueError):
        raise SpecError("sample must be a (start, end) pair of quarter "
                        f"labels, got {window!r}") from None
    QuarterIndex.parse(start)
    QuarterIndex.parse(end)


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
        # a bare string would otherwise run once per character
        if isinstance(self.shocks, str) or not self.shocks:
            raise SpecError("shocks must be a nonempty tuple of names")
        if len(set(self.shocks)) != len(self.shocks):
            raise SpecError("shock names must be unique")
        if not self.horizons or len(set(self.horizons)) != len(self.horizons):
            raise SpecError("horizons must list at least one horizon, "
                            "each once")
        if any(h < 0 for h in self.horizons):
            raise SpecError("horizons must list horizons >= 0, "
                            f"got {self.horizons}")
        if self.lags < 0:
            raise SpecError("lags must be >= 0")
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
        if self.p < 0:
            raise SpecError("p must be >= 0")
        if not self.block:
            raise SpecError("block must name at least one regressor")
        if len(set(self.block)) != len(self.block):
            raise SpecError("block names must be unique")
        if self.m < 1:
            raise SpecError("m must be >= 1")
        check_window(self.sample)
