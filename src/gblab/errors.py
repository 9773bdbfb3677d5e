"""Exception types shared across the package."""


class GblabError(Exception):
    """Base class for package errors."""


class DimensionMismatchError(GblabError):
    """Operands live in exterior algebras of different dimension."""


class InvariantViolationError(GblabError):
    """A constructed value violates one of its declared invariants."""


class SeriesConvergenceError(GblabError):
    """An eigenfunction series cannot reach the requested accuracy."""


class NumericalAbortError(GblabError):
    """A Monte Carlo run breached one of its numerical guard rails."""


class CalibrationRankError(GblabError):
    """The calibration design matrix does not determine all constants."""


class ConfigError(GblabError):
    """A run configuration is malformed or incomplete."""
