"""Ritus eigenfunctions and exact Foldy-Wouthuysen transformations
for 2+1 dimensional Dirac fermions in static magnetic fields.

The numeric API lives in the submodules (clifford, field_profiles,
operators, spectral_grid, ritus_basis, foldy_wouthuysen, propagator,
problem); import from them directly.  This package module stays import-light so
the ``rfw`` entry point can cap BLAS threads before numpy loads.  The numeric
submodules import numpy at module level and scipy.linalg only inside the
functions that call its LAPACK kernels, so importing any of them loads no
scipy module: scipy loads at a run's first solve.
"""

from .errors import (
    ArgumentError,
    ConditioningError,
    ConfigurationError,
    DiscretizationError,
    DomainError,
    PairingError,
    RitusFWError,
    TruncationError,
    UnsupportedProfileError,
)

__version__ = "0.1.0"

_SUBMODULES = (
    "clifford",
    "field_profiles",
    "operators",
    "spectral_grid",
    "ritus_basis",
    "foldy_wouthuysen",
    "propagator",
    "problem",
    "cli",
)

__all__ = [
    "__version__",
    "RitusFWError",
    "ConfigurationError",
    "ArgumentError",
    "DomainError",
    "UnsupportedProfileError",
    "TruncationError",
    "PairingError",
    "DiscretizationError",
    "ConditioningError",
    *_SUBMODULES,
]


def __getattr__(name):
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
