"""binn: bit-packed binary neural networks, ensembles, and analysis tools."""

__version__ = "0.1.0"

from . import bitcore  # noqa: F401
from .errors import (  # noqa: F401
    BinnError,
    DataError,
    EnsembleError,
    NumericalError,
    ShapeError,
)
