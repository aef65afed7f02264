"""Exception taxonomy; the CLI maps these onto stable exit codes."""


class BinnError(Exception):
    """Base class for package errors."""


class DataError(BinnError):
    """Malformed, truncated, or version-mismatched external data (exit 2)."""


class ShapeError(BinnError):
    """Tensor shape incompatible with a layer or operation."""


class NumericalError(BinnError):
    """Training or evaluation produced non-finite values (exit 3)."""


class EnsembleError(BinnError):
    """Ensemble training could not produce any usable member."""
