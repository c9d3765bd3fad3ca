"""Exception types shared across the package."""


class UGKSError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(UGKSError, ValueError):
    """An argument violates a documented precondition."""


class InvalidDataError(UGKSError, ValueError):
    """Sampled data violates a physical constraint (e.g. negative cross section)."""


class InvalidKernelError(UGKSError, ValueError):
    """A scattering kernel violates its bounds or produces a singular operator."""


class ConfigError(UGKSError):
    """A configuration file failed to parse or validate."""


class SolverFailureError(UGKSError, RuntimeError):
    """A solver step produced non-finite values or violated a stability bound.

    ``step`` is the failed step's number within the call that raised, 1
    unless the call took several steps."""

    def __init__(self, message: str, step: int = 1):
        super().__init__(message)
        self.step = step


class ComparisonError(UGKSError, ValueError):
    """Two run results cannot be compared (mismatched output times)."""
