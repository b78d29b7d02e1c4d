"""Ritus eigenfunctions and exact Foldy-Wouthuysen transformations
for 2+1 dimensional Dirac fermions in static magnetic fields.

The numeric API lives in the submodules (clifford, field_profiles,
operators, spectral_grid, ritus_basis, foldy_wouthuysen, propagator,
problem); import each by name, as ``from ritusfw.problem import Problem``.
This package module holds only the errors and the version, so the ``rfw``
entry point can cap BLAS threads before numpy loads.  The numeric
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
]

