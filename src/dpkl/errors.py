"""Exception hierarchy shared across the package."""


class DpklError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(DpklError):
    """Array shapes are inconsistent with the operation's contract."""


class NotPositiveDefinite(DpklError):
    """A matrix could not be Cholesky-factorized even with maximal jitter."""


class EmptyUnlabeledSet(DpklError):
    """The posterior-variance regularizer needs at least one unlabeled point."""


class InsufficientData(DpklError):
    """Too few labeled points remain after the validation split."""


class InsufficientRows(DpklError):
    """A split request asks for more rows than the dataset holds."""


class ParseError(DpklError):
    """A CSV cell could not be parsed as a number.

    Carries 1-based ``row`` and ``col`` of the offending cell.
    """

    def __init__(self, row: int, col: int, message: str):
        super().__init__(message)
        self.row = row
        self.col = col


class MissingTarget(DpklError):
    """The requested target column is absent from the input file."""


class ConfigError(DpklError):
    """A configuration value violates its contract (e.g. dkl mode with m > 1)."""


class CheckpointError(DpklError):
    """A checkpoint file is malformed or incompatible with the query data."""


class InternalConsistencyError(DpklError):
    """A numerical invariant was violated beyond floating-point tolerance."""
