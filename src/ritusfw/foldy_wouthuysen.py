"""Foldy-Wouthuysen transformations: free, exact-in-field, and one 1/m step.

The free transform is the closed-form 2x2 rotation

    U = cos(|p| theta) + (gamma.p / |p|) sin(|p| theta),
    tan(2 |p| theta) = |p| / m,

which block-diagonalizes H = gamma^0 (gamma.p + m) into gamma^0 sqrt(p^2+m^2).

In a static magnetic field the same construction goes through with |p|
replaced by the square root of Pi-tilde^2 = (gamma^0 gamma.Pi)^2: the angle
function theta(k) = arctan(sqrt(k)/m) / (2 sqrt(k)) is applied spectrally.
In the Ritus basis this is the free form, one 2x2 rotation per level.  On
the grid the levels are E = [E_0 | E_1 | ...] (2N x 2L, ell^2-orthonormal
after scaling by sqrt(h)), held as its slot blocks F[s], with the levels'
K = h E^T X E.  Level n's 2x2 block of K, at
columns (2n, 2n + 1), is real antisymmetric because the spatial Dirac
operator X is, so it is x_n J with J = [[0, 1], [-1, 0]], and its
exponential is the rotation

    W_n = expm(theta_n x_n J) = [[cos a_n, sin a_n], [-sin a_n, cos a_n]],
    a_n = theta_n x_n,

taken in closed form.  The zero mode's block is the identity, and its
empty column of E is exactly 0.  So U = 1 + h E (W - 1) E^T, with
W = diag(W_0, W_1, ...) (2L x 2L), is exactly unitary, commutes with the
level projectors by construction, and is the identity off the span of the
levels.  U is never formed, nor applied: it is kept as the levels and W.
Every check is 2L x 2L algebra on W - 1, the levels' Gram matrix
G = h E^T E and its Cholesky factor R, or 2L x 4 algebra per level; the
main claim reads U E - E F = E (1 + (W - 1) G - F), F the free rotations.
On E's populated columns W is U compressed to the span of the levels, and
the restricted Hamiltonian, read from the levels alone, is K + m graded by gamma^0.

The 1/m route (bd_step) applies one textbook step U = exp(i S) with
S = -i beta O / (2m), O the gamma^0-odd part of the Hamiltonian; for a
static field the step suppresses the odd part by two more powers of 1/m.
graded_norms is the one gamma^0-grading split, read by both routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import expm

from .clifford import GammaRep
from .errors import ArgumentError, DiscretizationError
from .ritus_basis import RitusLevels

__all__ = [
    "FWOperator",
    "theta",
    "free_fw",
    "field_fw_from_levels",
    "graded_norms",
    "verify_main_claim",
    "bd_step",
    "fw_series_hamiltonian",
    "unitarity_residual",
    "projector_commutation_residual",
    "restricted_hamiltonian",
]


def theta(k: float, m: float) -> float:
    """theta(k) = arctan(sqrt(k)/m) / (2 sqrt(k)), continued to 1/(2m) at k=0."""
    if k < 0:
        raise ArgumentError(f"k must be non-negative, got {k}")
    if m <= 0:
        raise ArgumentError(f"mass must be positive, got {m}")
    z = math.sqrt(k) / m
    if z < 1e-8:
        # arctan(z)/z = 1 - z^2/3 + ...
        return (1.0 - z * z / 3.0) / (2.0 * m)
    return math.atan(z) / (2.0 * math.sqrt(k))


@dataclass(frozen=True)
class FWOperator:
    """The exact field FW operator U = 1 + h E (W - 1) E^T (2N x 2N), kept as factors.

    levels are the levels U was built from, E = [E_0 | E_1 | ...], and
    levels.ops the grid operators and gamma representation U was built in.
    W is block-diagonal, 2L x 2L, with level n's 2x2 rotation at columns
    (2n, 2n + 1) and the identity on the zero mode's block.  ``factors``
    holds the 2L x 2L factors every check reads.
    """

    mass: float
    levels: RitusLevels = field(repr=False)
    W: np.ndarray = field(repr=False)

    @cached_property
    def factors(self):
        """(D, G, R), built on first read: D = W - 1, G = h E^T E and G = R^T R.

        G is the levels' Gram matrix, whose empty zero-mode row and column
        are exactly 0; 1 - projector sets its diagonal entry there to 1.
        That leaves every product with D unchanged, since D is 0 on that row
        and column, and makes R, the upper Cholesky factor, that of the
        populated columns alone next to a 1.  So ||h E C E^T||_2 = ||R C R^T||_2 for any C that is 0 on the
        empty row and column.
        """
        G = self.levels.gram + np.diag(1.0 - self.levels.projector)
        return self.W - np.eye(G.shape[0]), G, np.linalg.cholesky(G).T


# ----------------------------------------------------------------------
# free transform
# ----------------------------------------------------------------------


def free_fw(k: float, m: float, rep: GammaRep) -> np.ndarray:
    """The 2x2 free FW rotation at momentum |p| = sqrt(k) (the Ritus label)."""
    if k < 0:
        raise ArgumentError(f"k must be non-negative, got {k}")
    if m <= 0:
        raise ArgumentError(f"mass must be positive, got {m}")
    beta = 0.5 * math.atan2(math.sqrt(k), m)   # = |p| * theta(|p|^2), safe at p=0
    return math.cos(beta) * np.eye(2, dtype=complex) + math.sin(beta) * rep.gamma[2]


# ----------------------------------------------------------------------
# exact field transform
# ----------------------------------------------------------------------


def field_fw_from_levels(levels: RitusLevels, m: float) -> FWOperator:
    """Assemble the exact field FW operator from levels: their slot blocks, k and X enter.

    Level n's rotation angle is theta(k_n) times the coupling
    x_n = (K_01 - K_10) / 2 of its diagonal block of the levels'
    K = h E^T X E (the mean of the two entries kills K's rounding-level
    symmetric part).
    """
    negative = np.flatnonzero(levels.k < 0)
    if negative.size:
        # only reachable through a flagged zero mode the solver kept negative
        n = negative[0]
        raise DiscretizationError(
            f"level {n} has k = {levels.k[n]:.3e} < 0: the zero mode is not "
            "resolved inside the zero-mode clamp; refine the grid"
        )

    K = levels.K
    W = np.eye(K.shape[0])
    for n, k in enumerate(levels.k[1:].tolist(), start=1):
        i, j = 2 * n, 2 * n + 1         # level n's columns of E, on slots 0 and 1
        a = theta(k, m) * 0.5 * (K[i, j] - K[j, i])
        W[i:j + 1, i:j + 1] = [[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]]
    return FWOperator(mass=m, levels=levels, W=W)


def unitarity_residual(fw: FWOperator) -> float:
    """Spectral norm ||U^dag U - 1||_2.

    With D = W - 1 and G = h E^T E,
    U^T U - 1 = h E (D + D^T + D^T G D) E^T, whose spectral norm is that of
    the 2L x 2L matrix R C R^T (G = R^T R): exact, and never below the
    largest entry of U^T U - 1.
    """
    D, G, R = fw.factors
    return float(np.linalg.norm(R @ (D + D.T + D.T @ G @ D) @ R.T, 2))


def projector_commutation_residual(fw: FWOperator) -> float:
    """max over levels n of the spectral norm ||[U, P_n]||_2.

    P_n = h E S_n E^T with S_n the selector of level n's columns, so
    [U, P_n] = h E C_n E^T with C_n = D G S_n - S_n G D, and
    R C_n R^T = P Q^T with the 2L x 4 factors P = [(R D G) S_n, -R S_n]
    and Q = [R S_n, (R D^T G) S_n] (each S_n keeping two columns).  With
    thin QRs P = Q_P T_P and Q = Q_Q T_Q, the norm is ||T_P T_Q^T||_2, a
    4 x 4 matrix per level.
    """
    D, G, R = fw.factors
    L = len(fw.levels)

    def per_level(A):               # (2L, 2L) -> (L, 2L, 2): level n's columns of A
        return A.reshape(-1, L, 2).transpose(1, 0, 2)

    Rn = per_level(R)
    P = np.concatenate([per_level(R @ D @ G), -Rn], axis=2)
    Q = np.concatenate([Rn, per_level(R @ D.T @ G)], axis=2)
    T = np.linalg.qr(P, mode="r") @ np.linalg.qr(Q, mode="r").transpose(0, 2, 1)
    return float(np.linalg.norm(T, 2, axis=(1, 2)).max())


# ----------------------------------------------------------------------
# restricted Hamiltonian and its gamma^0 grading
# ----------------------------------------------------------------------


def graded_norms(T: np.ndarray, beta: np.ndarray) -> tuple[float, float]:
    """(even, odd): Frobenius norms of T's parts under the diagonal grading beta (+/-1)."""
    mask = np.outer(beta, beta) > 0
    return (float(np.linalg.norm(np.where(mask, T, 0.0))),
            float(np.linalg.norm(np.where(mask, 0.0, T))))


def restricted_hamiltonian(levels: RitusLevels, m: float):
    """(H_r, beta_r): the Dirac Hamiltonian at mass m compressed to the span of the levels.

    H_r = h E^T H_D E on E's populated columns (where levels.projector is
    1), with H_D = gamma^0 (gamma.Pi + m); beta_r is the exact gamma^0
    grading of those columns, +1 on spinor slot 0 and -1 on slot 1.  Each
    column lives on one spinor slot, so H_r = diag(beta_r) (K + m) there:
    L x L work for any mass.
    """
    populated = np.flatnonzero(levels.projector)
    beta = np.where(populated % 2, -1.0, 1.0)
    H_r = beta[:, None] * levels.K[np.ix_(populated, populated)] + m * np.diag(beta)
    H_r = 0.5 * (H_r + H_r.T)
    return H_r, beta


# ----------------------------------------------------------------------
# the factorization claim
# ----------------------------------------------------------------------


def verify_main_claim(fw: FWOperator) -> np.ndarray:
    """|| U E_p - E_p U_free(pbar) ||_F / ||E_p||_F of each level, from fw.factors.

    U_free is built independently from the closed-form free rotation at
    |p| = sqrt(k), with the mass and gamma representation U was built with
    (real: cos + sin gamma^2, and gamma^2 is real).  With (D, G, R) =
    fw.factors, U E - E F = E C, C = 1 + D G - F, F = blockdiag(U_free).
    C is 0 on E's empty zero-mode row (D is 0 there and U_free(0) = 1), so
    sqrt(h) ||E C_n||_F = ||R C_n||_F on level n's columns; sqrt(h) ||E_p||_F
    comes from the levels' Gram matrix.
    """
    D, G, R = fw.factors
    L = len(fw.levels)
    rep = fw.levels.ops.rep
    free = np.array([free_fw(k, fw.mass, rep).real for k in fw.levels.k.tolist()])
    C = D @ G
    C.reshape(L, 2, L, 2)[range(L), :, range(L), :] += np.eye(2) - free
    residual = np.linalg.norm((R @ C).reshape(-1, L, 2), axis=(0, 2))
    return residual / np.sqrt(fw.levels.sq_norms)


# ----------------------------------------------------------------------
# 1/m expansion
# ----------------------------------------------------------------------


def bd_step(H: np.ndarray, m: float, beta: np.ndarray) -> np.ndarray:
    """One 1/m block-diagonalization step: U H U^T with U = expm(beta O / (2m)).

    O is H's odd part under the beta grading, so U = exp(i S) with
    S = -i beta O / (2m).
    """
    if m <= 0:
        raise ArgumentError(f"mass must be positive, got {m}")
    odd = np.where(np.outer(beta, beta) > 0, 0.0, H)
    U = expm((beta[:, None] * odd) / (2.0 * m))      # beta O / 2m, antisymmetric
    return U @ H @ U.T


def fw_series_hamiltonian(k: float, m: float, order: int) -> float:
    """Truncated 1/m energy: order 2 -> m + k/2m; order 3 adds -k^2/8m^3.

    The truncation error versus sqrt(k + m^2) is bounded by the next Taylor
    term (k^3/16m^5 at order 3).
    """
    if k < 0:
        raise ArgumentError(f"k must be non-negative, got {k}")
    if m <= 0:
        raise ArgumentError(f"mass must be positive, got {m}")
    if order == 2:
        return m + k / (2.0 * m)
    if order == 3:
        return m + k / (2.0 * m) - k * k / (8.0 * m**3)
    raise ArgumentError(f"unsupported series order {order}; choose 2 or 3")
