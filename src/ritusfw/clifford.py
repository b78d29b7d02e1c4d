"""Gamma matrices for planar (2+1 dimensional) Dirac fermions.

In 2+1 dimensions the irreducible representations of the Clifford algebra
are 2x2, and there are exactly two inequivalent choices.  Both use
``gamma^0 = sigma_3`` and ``gamma^1 = i sigma_1``; they differ in the sign
of ``gamma^2 = +/- i sigma_2``.  The product of two gamma matrices closes
on the algebra itself,

    gamma^mu gamma^nu = g^{mu nu} 1 + s * i eps^{mu nu lam} gamma_lam,

with the structure sign ``s`` flipping between the two variants.  The
metric is diag(+1, -1, -1) and eps^{012} = +1 throughout.

All entries are exact (0, +-1, +-i), so algebra checks here use exact
equality rather than floating-point tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ConfigurationError

__all__ = [
    "GammaRep",
    "SpinProjector",
    "make_rep",
    "anticommutator",
    "check_product_identity",
]

METRIC = np.diag([1.0, -1.0, -1.0])

_SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)

# Totally antisymmetric symbol with eps^{012} = +1.
_EPS = np.zeros((3, 3, 3))
for _p, _s in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
               ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
    _EPS[_p] = _s


@dataclass(frozen=True)
class GammaRep:
    """One of the two inequivalent 2x2 gamma-matrix representations.

    Attributes
    ----------
    variant : str
        ``"first"`` or ``"second"``.
    gamma : tuple of ndarray
        The three matrices (gamma^0, gamma^1, gamma^2), complex 2x2.
    metric : ndarray
        diag(+1, -1, -1).
    product_sign : int
        Sign ``s`` in gamma^mu gamma^nu = g^{mu nu} + s*i*eps^{mu nu lam} gamma_lam;
        -1 for the first variant, +1 for the second.
    """

    variant: str
    gamma: tuple
    metric: np.ndarray = field(default_factory=lambda: METRIC.copy())
    product_sign: int = -1

    def lower(self, mu: int) -> np.ndarray:
        """gamma_mu = g_{mu nu} gamma^nu (no sum surprises: metric is diagonal)."""
        return self.metric[mu, mu] * self.gamma[mu]


@dataclass(frozen=True)
class SpinProjector:
    """Projector Pi(n) selecting the populated spin orientations of level n.

    Identity for n >= 1; for n = 0 it is the rank-1 projector onto the spin
    channel that hosts the zero mode (which channel depends on sign(eB)).
    """

    level: int
    matrix: np.ndarray

    def __post_init__(self):
        p = self.matrix
        if not np.array_equal(p, p @ p):
            raise ConfigurationError("spin projector must be idempotent")


def make_rep(variant: str) -> GammaRep:
    """Construct one of the two inequivalent 2+1D representations.

    Parameters
    ----------
    variant : {"first", "second"}
        "first":  gamma^0 = sigma_3, gamma^1 = i sigma_1, gamma^2 = i sigma_2.
        "second": same gamma^0, gamma^1 but gamma^2 = -i sigma_2.

    Returns
    -------
    GammaRep
    """
    if variant == "first":
        gamma = (_SIGMA3.copy(), 1j * _SIGMA1, 1j * _SIGMA2)
        sign = -1
    elif variant == "second":
        gamma = (_SIGMA3.copy(), 1j * _SIGMA1, -1j * _SIGMA2)
        sign = +1
    else:
        raise ConfigurationError(
            f"unknown gamma representation variant {variant!r}; "
            "choose 'first' or 'second'"
        )
    return GammaRep(variant=variant, gamma=gamma, product_sign=sign)


def anticommutator(rep: GammaRep, mu: int, nu: int) -> np.ndarray:
    """{gamma^mu, gamma^nu}; must equal 2 g^{mu nu} times the identity."""
    if mu not in (0, 1, 2) or nu not in (0, 1, 2):
        raise ArgumentError(f"gamma index out of range: ({mu}, {nu})")
    a, b = rep.gamma[mu], rep.gamma[nu]
    return a @ b + b @ a


def check_product_identity(rep: GammaRep) -> dict:
    """Check gamma^mu gamma^nu = g^{mu nu} + product_sign * i eps^{mu nu lam} gamma_lam.

    Returns
    -------
    dict with keys ``max_residual`` (float, should be exactly 0.0) and
    ``sign`` (the representation's product_sign).
    """
    eye = np.eye(2, dtype=complex)
    worst = 0.0
    s = rep.product_sign
    for mu in range(3):
        for nu in range(3):
            rhs = rep.metric[mu, nu] * eye
            for lam in range(3):
                rhs = rhs + s * 1j * _EPS[mu, nu, lam] * rep.lower(lam)
            res = np.abs(rep.gamma[mu] @ rep.gamma[nu] - rhs).max()
            worst = max(worst, float(res))
    return {"max_residual": worst, "sign": s}
