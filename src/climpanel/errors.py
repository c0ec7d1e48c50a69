"""Exception hierarchy shared across the toolkit.

Data-validation errors map to CLI exit code 2, estimation errors to 3,
configuration / usage errors to 1.
"""
from __future__ import annotations


class ClimPanelError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(ClimPanelError):
    """Invalid or unknown configuration keys / values."""


class SpecError(ConfigError, ValueError):
    """A library spec or argument is out of range; also a ValueError."""


class DataValidationError(ClimPanelError):
    """Input data violates a structural contract."""


class SchemaError(DataValidationError):
    """CSV is missing required columns or a cell cannot be parsed."""


class PanelIntegrityError(DataValidationError):
    """Duplicate (region, quarter, variable) cells carry conflicting values."""


class GapError(DataValidationError):
    """The quarterly index is not contiguous for some region.

    gaps holds the missing (region, quarter) cells; when count is given,
    only the first of its count gaps."""

    def __init__(self, gaps, count=None):
        self.gaps = tuple(gaps)
        self.count = len(self.gaps) if count is None else count
        shown = ", ".join(f"({r}, {q})" for r, q in self.gaps[:8])
        more = "" if self.count <= 8 else f" and {self.count - 8} more"
        super().__init__(f"missing quarters: {shown}{more}")


class TransformDomainError(DataValidationError):
    """A transform was applied outside its domain (e.g. log of x <= 0)."""


class VariableLookupError(DataValidationError):
    """Requested variable does not exist in the dataset."""


class EmptyPanelError(DataValidationError):
    """An operation produced or received a panel with no cells."""


class EmptySummaryError(DataValidationError):
    """Summary statistics requested for an all-missing series."""


class BurnInError(DataValidationError):
    """Not enough history before the requested window to form norms."""


class DegenerateWeightError(DataValidationError):
    """Aggregation weights sum to zero for some region."""


class EstimationError(ClimPanelError):
    """A regression could not be estimated."""


class SampleError(EstimationError):
    """No usable observations remain after trimming and listwise deletion."""


class RankDeficiencyError(EstimationError):
    """Design matrix is rank deficient after the within transformation."""

    def __init__(self, message, columns=()):
        self.columns = tuple(columns)
        super().__init__(message)


class DegreesOfFreedomError(EstimationError):
    """Residual degrees of freedom are non-positive."""


class BandwidthError(EstimationError):
    """HAC lag truncation is not compatible with the sample length."""


class UnitRootError(EstimationError):
    """Sum of autoregressive coefficients is one; long-run effect undefined."""
