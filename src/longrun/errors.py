"""Exception hierarchy shared by every longrun module.

All data/computation failures derive from :class:`LongrunError` so callers
(and the CLI, which maps them to exit code 2) can catch one base type.
"""


class LongrunError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(LongrunError):
    """Input shapes or lengths disagree."""


class RankDeficient(LongrunError):
    """A regressor matrix is numerically singular (relative tol 1e-12)."""


class NotPositiveDefinite(LongrunError):
    """A matrix required to be positive definite is not."""


class DomainError(LongrunError):
    """A numeric argument lies outside the function's domain."""


class TooShort(LongrunError):
    """A series or sample has too few observations for the operation."""


class ParseError(LongrunError):
    """A CSV row failed to parse."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
        self.reason = message


class DuplicateDate(LongrunError):
    """The same calendar date appears twice in one input file."""

    def __init__(self, date):
        super().__init__(f"duplicate date {date}")


class EmptyFile(LongrunError):
    """An input file contains no data rows."""


class GapError(LongrunError):
    """A month inside the sample span has no observations."""

    def __init__(self, year: int, month: int):
        super().__init__(f"no observations in month {year:04d}:{month:02d}")
        self.year = year
        self.month = month


class NoOverlap(LongrunError):
    """Two series share no common month span of length >= 2."""


class ConstantSeries(LongrunError):
    """Skewness/kurtosis are undefined for a constant series."""


class ConstantColumn(LongrunError):
    """Correlation is undefined for a constant column."""


class InvalidSpec(LongrunError):
    """A synthetic-process specification is malformed."""


class UnsupportedCase(LongrunError):
    """No embedded table covers the requested deterministic case or level."""


class ConfigError(LongrunError):
    """A pipeline configuration value is invalid (a usage error, exit 1)."""
