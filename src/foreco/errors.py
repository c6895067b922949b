"""Exception types shared across the package."""


class ForecoError(Exception):
    """Base class for all errors raised by this package."""

    kind = "error"


class InvalidTrace(ForecoError):
    """A trace violates its structural invariants (empty, gaps, bad period)."""

    kind = "data"


class FormatError(ForecoError):
    """An input file is not UTF-8 text in the format its reader expects."""

    kind = "format"


class ConfigError(ForecoError):
    """Inconsistent or out-of-range configuration values."""

    kind = "config"


class InsufficientData(ForecoError):
    """Training trace too short for the requested model order."""

    kind = "data"


class InsufficientHistory(ForecoError):
    """Prediction requested with fewer past commands than the model needs."""

    kind = "data"


class RankDeficient(ForecoError):
    """The least-squares design matrix is numerically rank deficient."""

    kind = "numeric"

    def __init__(self, column: int, message: str | None = None):
        self.column = column
        super().__init__(message or f"design matrix is rank deficient at column {column}")


class Diverged(ForecoError):
    """Iterative training produced a non-finite loss."""

    kind = "numeric"

    def __init__(self, iteration: int, message: str | None = None):
        self.iteration = iteration
        super().__init__(message or f"training loss became non-finite at step {iteration}")


class DegenerateCovariance(ForecoError):
    """Residual covariance is singular, so the Gaussian likelihood is undefined."""

    kind = "numeric"


class OutOfRange(ForecoError):
    """An index or parameter is outside its admissible range."""

    kind = "config"


class AlwaysLost(ForecoError):
    """The channel loses every frame; delivered-delay statistics are undefined."""

    kind = "config"
