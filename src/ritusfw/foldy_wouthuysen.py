"""Foldy-Wouthuysen transformations: free, exact-in-field, and 1/m iteration.

The free transform is the closed-form 2x2 rotation

    U = cos(|p| theta) + (gamma.p / |p|) sin(|p| theta),
    tan(2 |p| theta) = |p| / m,

which block-diagonalizes H = gamma^0 (gamma.p + m) into gamma^0 sqrt(p^2+m^2).

In a static magnetic field the same construction goes through with |p|
replaced by the square root of Pi-tilde^2 = (gamma^0 gamma.Pi)^2: the angle
function theta(k) = arctan(sqrt(k)/m) / (2 sqrt(k)) is applied spectrally.
In the Ritus basis this is the free form, one 2x2 rotation per level.  On
the grid the levels are the columns of E = [E_0 | E_1 | ...] (2N x 2L,
ell^2-orthonormal after scaling by sqrt(h)), and X acts on E once, giving
K = h E^T X E.  Level n's 2x2 block of K, at columns (2n, 2n + 1), is real
antisymmetric because the spatial Dirac operator X is, so it is x_n J with
J = [[0, 1], [-1, 0]], and its exponential is the rotation

    W_n = expm(theta_n x_n J) = [[cos a_n, sin a_n], [-sin a_n, cos a_n]],
    a_n = theta_n x_n,

taken in closed form.  The zero mode's block is the identity, and its
empty column of E is exactly 0.  So U = 1 + h E (W - 1) E^T, with
W = diag(W_0, W_1, ...) (2L x 2L), is exactly unitary, commutes with the
level projectors by construction, and is the identity off the span of the
levels.  U is never formed: it is kept as E and W.  One Gram matrix
G = h E^T E serves the main claim, U E = E + E ((W - 1) G), and the checks,
which are 2L x 2L algebra on W - 1, G and its Cholesky factor, and 2L x 4
algebra per level.  On E's populated columns W is U compressed to the span
of the levels, and the restricted Hamiltonian is K + m graded by gamma^0.

The 1/m route (bd_iteration) applies the textbook step U_j = exp(i S_j)
with S_j = -i beta O_j / (2m), O_j the gamma^0-odd part of the current
Hamiltonian; for a static field each step suppresses the odd part by two
more powers of 1/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional

import numpy as np
from scipy.linalg import expm

from .clifford import GammaRep
from .errors import ArgumentError, DiscretizationError
from .operators import GridOperators
from .ritus_basis import RitusLevels, times_blocks

__all__ = [
    "FWOperator",
    "FWHamiltonianReport",
    "theta",
    "free_fw",
    "field_fw_from_levels",
    "transform_hamiltonian",
    "verify_main_claim",
    "bd_iteration",
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

    levels are the levels U was built from, and E their stacked matrix.  W
    is block-diagonal, 2L x 2L, with level n's 2x2 rotation at columns
    (2n, 2n + 1) and the identity on the zero mode's block.
    K = h E^T X E is the spatial Dirac operator on the levels, rep the gamma
    representation U was built in.  ``apply`` applies U to grid vectors;
    ``factors`` holds the 2L x 2L factors its checks read.
    """

    mass: float
    levels: RitusLevels = field(repr=False)
    W: np.ndarray = field(repr=False)
    K: np.ndarray = field(repr=False)
    rep: GammaRep = field(repr=False)

    @cached_property
    def factors(self):
        """(D, G, R), built on first read: D = W - 1, G = h E^T E and G = R^T R.

        G's empty zero-mode row and column are exactly 0; 1 - projector sets
        its diagonal entry there to 1.  That leaves every product with D
        unchanged, since D is 0 on that row and column, and makes R, the
        upper Cholesky factor, that of the populated columns alone next to
        a 1.  So ||h E C E^T||_2 = ||R C R^T||_2 for any C that is 0 on the
        empty row and column.
        """
        E = self.levels.E
        G = self.levels.grid.h * (E.T @ E) + np.diag(1.0 - self.levels.projector)
        return self.W - np.eye(E.shape[1]), G, np.linalg.cholesky(G).T

    def apply(self, V: np.ndarray) -> np.ndarray:
        """U V = V + E ((W - 1)(h E^T V)) for a grid vector or matrix V.

        For V = E itself, h E^T V is the Gram matrix G of ``factors``.
        """
        D, G, _ = self.factors
        E = self.levels.E
        UV = E @ (D @ (G if V is E else self.levels.grid.h * (E.T @ V)))
        UV += V                     # in place: one grid-sized array per product
        return UV


@dataclass(frozen=True)
class FWHamiltonianReport:
    """The gamma^0-grading split and spectrum of a transformed Hamiltonian."""

    even_part_norm: float
    odd_part_norm: float
    eigenvalues: np.ndarray


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


def field_fw_from_levels(levels: RitusLevels, ops: GridOperators, m: float) -> FWOperator:
    """Assemble the exact field FW operator from levels; only their E and k enter.

    Level n's rotation angle is theta(k_n) times the coupling
    x_n = (K_01 - K_10) / 2 of its diagonal block of K = h E^T X E (the
    mean of the two entries kills K's rounding-level symmetric part).
    """
    if not levels.grid.same_as(ops.grid):
        raise ArgumentError("levels and operators use different grids")
    negative = np.flatnonzero(levels.k < 0)
    if negative.size:
        # only reachable through a flagged zero mode the solver kept negative
        n = negative[0]
        raise DiscretizationError(
            f"level {n} has k = {levels.k[n]:.3e} < 0: the zero mode is not "
            "resolved inside the zero-mode clamp; refine the grid"
        )

    E = levels.E
    K = levels.grid.h * (E.T @ (ops.X @ E))
    W = np.eye(E.shape[1])
    for n, k in enumerate(levels.k[1:].tolist(), start=1):
        i, j = 2 * n, 2 * n + 1         # level n's columns of E
        a = theta(k, m) * 0.5 * (K[i, j] - K[j, i])
        W[i:j + 1, i:j + 1] = [[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]]
    return FWOperator(mass=m, levels=levels, W=W, K=K, rep=ops.rep)


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
# conjugation, gradings, reports
# ----------------------------------------------------------------------


def _graded_report(T: np.ndarray, beta: np.ndarray) -> FWHamiltonianReport:
    """Even/odd norms of T under the diagonal grading beta, and its spectrum."""
    mask = np.outer(beta, beta) > 0
    return FWHamiltonianReport(
        even_part_norm=float(np.linalg.norm(np.where(mask, T, 0.0))),
        odd_part_norm=float(np.linalg.norm(np.where(mask, 0.0, T))),
        eigenvalues=np.linalg.eigvalsh(0.5 * (T + T.conj().T)),
    )


def transform_hamiltonian(U: np.ndarray, H: np.ndarray, beta: np.ndarray) -> FWHamiltonianReport:
    """U H U^dag for a dense U, with even/odd norms and spectrum.

    beta is the diagonal gamma^0 grading (+/-1 per basis vector).  For the
    field operator pass fw.W on E's populated columns (where
    levels.projector is 1), and H and beta from restricted_hamiltonian:
    there W is U compressed to the span of the levels.
    """
    if U.shape != H.shape:
        raise ArgumentError(f"dimension mismatch: U {U.shape} vs H {H.shape}")
    return _graded_report(U @ H @ U.conj().T, beta)


def restricted_hamiltonian(fw: FWOperator, m: Optional[float] = None):
    """(H_r, beta_r): the Dirac Hamiltonian compressed to the span of the levels.

    H_r = h E^T H_D E on E's populated columns (where levels.projector is
    1), with H_D = gamma^0 (gamma.Pi + m); beta_r is the exact gamma^0
    grading of those columns, +1 on spinor slot 0 and -1 on slot 1.  Each
    column lives on one spinor slot, so H_r = diag(beta_r) (K + m) there:
    L x L work for any mass.
    """
    mm = fw.mass if m is None else m
    populated = np.flatnonzero(fw.levels.projector)
    beta = np.where(populated % 2, -1.0, 1.0)
    H_r = beta[:, None] * fw.K[np.ix_(populated, populated)] + mm * np.diag(beta)
    H_r = 0.5 * (H_r + H_r.T)
    return H_r, beta


# ----------------------------------------------------------------------
# the factorization claim
# ----------------------------------------------------------------------


def verify_main_claim(fw: FWOperator, levels: RitusLevels) -> np.ndarray:
    """|| U E_p - E_p U_free(pbar) ||_F / ||E_p||_F of each level.

    U is the exact field FW operator, applied once to the stacked E; U_free
    is built independently from the closed-form free rotation at
    |p| = sqrt(k), with the mass and gamma representation U was built with
    (real: cos + sin gamma^2, and gamma^2 is real).
    """
    E = levels.E
    free = np.array([free_fw(k, fw.mass, fw.rep).real for k in levels.k.tolist()])
    UE = fw.apply(E)
    residual = times_blocks(E, free)                # Fortran order, as E
    np.subtract(UE, residual, out=residual)
    return levels.norms(residual) / levels.norms(E)


# ----------------------------------------------------------------------
# 1/m expansion
# ----------------------------------------------------------------------


def bd_iteration(
    H: np.ndarray,
    m: float,
    steps: int,
    beta: np.ndarray,
) -> List[FWHamiltonianReport]:
    """Successive 1/m block-diagonalization steps.

    Step j: split H = even + odd by the beta grading, apply
    U_j = exp(i S_j) with S_j = -i beta O_j/(2m), i.e. U_j = expm(beta O_j/(2m)).
    Returns one report per step (after applying that step).
    """
    if steps < 1:
        raise ArgumentError(f"steps must be >= 1, got {steps}")
    if m <= 0:
        raise ArgumentError(f"mass must be positive, got {m}")
    mask = np.outer(beta, beta) > 0

    reports = []
    cur = np.asarray(H, dtype=float)
    for _ in range(steps):
        odd = np.where(mask, 0.0, cur)
        gen = (beta[:, None] * odd) / (2.0 * m)      # beta O / 2m, antisymmetric
        U = expm(gen)
        cur = U @ cur @ U.T
        reports.append(_graded_report(cur, beta))
    return reports


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
