"""Exception types shared across the package.

Three broad groups, mirrored by the CLI exit codes: configuration
problems (bad options, bad model parameters), data problems (unusable
input, degenerate patterns), and numerical failures (non-convergence,
truncation budgets).
"""


class CellppError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CellppError):
    """Invalid configuration, option combination, or parameter value."""


class DataError(CellppError):
    """Input data cannot be used as requested."""


class SchemaError(DataError):
    """A mandatory column is missing from the input table."""


class EmptyInputError(DataError):
    """The input table contains no data rows."""


class ZoneError(DataError):
    """A coordinate lies outside the projection's validity zone."""

    def __init__(self, message, record_id=None, index=None):
        super().__init__(message)
        self.record_id = record_id
        self.index = index


class OutsideWindowError(DataError):
    """A point lies outside the observation window."""


class DegeneratePatternError(DataError):
    """The pattern has too few points for the requested operation."""


class InsufficientDataError(DataError):
    """Not enough points to support the requested resolution."""


class GridMismatchError(ConfigError):
    """Two curves were combined but live on different radius grids."""


class InsufficientRangeError(DataError):
    """Too few usable radii inside the contrast fitting range."""


class ExistenceViolation(ConfigError):
    """Model parameters violate the existence region of the family.

    Carries the binding constraint as text plus the signed margin
    (positive means the constraint is exceeded by that amount).
    """

    def __init__(self, constraint, margin):
        super().__init__(f"existence constraint violated: {constraint} "
                         f"(margin {margin:.6g})")
        self.constraint = constraint
        self.margin = margin


class NumericalError(CellppError):
    """A numerical routine could not finish within its budget."""


class TruncationError(NumericalError):
    """A draw expects more points than its budget, or its modes cannot
    be indexed or their eigenvalues formed.

    ``required`` is what the request would need (by default basis
    elements), ``budget`` the cap; ``detail`` replaces the default text.
    """

    def __init__(self, required, budget, detail=None):
        super().__init__("truncation budget exceeded: " + (
            detail or f"need {required} basis elements, budget is {budget}"))
        self.required = required
        self.budget = budget


class ConvergenceError(NumericalError):
    """An optimizer stopped without meeting its tolerance.

    ``trace`` holds the evaluated (parameter, objective) pairs.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class SamplerStallError(NumericalError):
    """A sequential sampler drew its proposal budget for one point
    without accepting any; the proposal features are degenerate."""
