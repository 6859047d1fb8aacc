"""Exception hierarchy shared across the package."""


class ZicountError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(ZicountError, ValueError):
    """A distribution parameter, or a count, is non-finite or outside its domain."""


class DegenerateTruncationError(ZicountError, ValueError):
    """The zero-truncated NB is undefined because 1 - NB(0) underflowed to 0."""


class CountOverflowError(ZicountError, OverflowError):
    """A sampled count does not fit in int64."""


class IllConditionedDesignError(ZicountError, ValueError):
    """A linear predictor overflowed exp(); the design/coefficients are unusable."""


class DegenerateDataError(ZicountError, ValueError):
    """The response carries no information for the requested model (e.g. all zeros)."""


class NonFiniteCoefficientsError(ZicountError, ValueError):
    """Regression coefficients are NaN or infinite (e.g. a diverged fit)."""


class InitializationError(ZicountError, RuntimeError):
    """An optimizer objective is not finite at its start or its end point."""


class ConstantColumnError(ZicountError, ValueError):
    """Rank statistics are undefined for a column with a single repeated value."""


class NonFiniteDataError(ZicountError, ValueError):
    """Data hold a NaN or infinite value where a statistic needs finite numbers."""


class InvalidCorrelationError(ZicountError, ValueError):
    """A matrix that must be a symmetric positive-definite correlation is not."""


class UndefinedComparisonError(ZicountError, ValueError):
    """Relative comparison of two distances is undefined (both are zero)."""


class SelectionError(ZicountError, ValueError):
    """Column selection cannot be satisfied by the source data."""


class ParseError(ZicountError, ValueError):
    """Ingestion failed; the message names the offending file location."""


class ShapeError(ZicountError, ValueError):
    """Array arguments have incompatible shapes."""


class ClampedCorrelationWarning(UserWarning):
    """A rank correlation fell outside the invertible range and was clamped."""
