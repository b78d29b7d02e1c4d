"""Foldy-Wouthuysen transformations: free, exact-in-field, and 1/m iteration.

The free transform is the closed-form 2x2 rotation

    U = cos(|p| theta) + (gamma.p / |p|) sin(|p| theta),
    tan(2 |p| theta) = |p| / m,

which block-diagonalizes H = gamma^0 (gamma.p + m) into gamma^0 sqrt(p^2+m^2).

In a static magnetic field the same construction goes through with |p|
replaced by the square root of Pi-tilde^2 = (gamma^0 gamma.Pi)^2: the angle
function theta(k) = arctan(sqrt(k)/m) / (2 sqrt(k)) is applied spectrally.
Numerically the operator is built cluster by cluster on the resolved span:
each paired level contributes a 2x2 generator X_nn = B_n^T X B_n (exactly
real antisymmetric because the spatial Dirac operator X is), so

    U = 1 + sum_n B_n (expm(theta_n X_nn) - 1) B_n^T

is exactly unitary, commutes with the eigenprojectors by construction, and
is the identity on the zero-mode cluster (a 1x1 antisymmetric block is 0).
Off the resolved span U acts as the identity.  U is never formed: it is kept
as the factors B = [B_0 | B_1 | ...] (2N x L) and the block-diagonal
W = diag(expm(theta_n X_nn)) (L x L), U = 1 + B (W - 1) B^T, and applied as
a scipy LinearOperator.  Its checks reduce to L x L algebra, and W itself is
U compressed to the resolved span.

The 1/m route (bd_iteration) applies the textbook step U_j = exp(i S_j)
with S_j = -i beta O_j / (2m), O_j the gamma^0-odd part of the current
Hamiltonian; for a static field each step suppresses the odd part by two
more powers of 1/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
from scipy.linalg import block_diag, expm
from scipy.sparse.linalg import LinearOperator

from .clifford import GammaRep
from .errors import ArgumentError
from .operators import GridOperators
from .ritus_basis import BarMomentum, RitusLevel, bar_momentum

__all__ = [
    "FWOperator",
    "FWHamiltonianReport",
    "theta",
    "free_fw",
    "free_fw_hamiltonian",
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
    """The exact field FW operator U = 1 + B (W - 1) B^T (2N x 2N), kept as factors.

    span is the resolved span B (ell^2-orthonormal columns), W the
    block-diagonal L x L matrix holding one 2x2 (or 1x1) rotation per level
    at cluster_slices, and span_grading the gamma^0 grading of the span
    columns.
    """

    mass: float
    levels: tuple
    span: np.ndarray = field(repr=False)
    span_grading: np.ndarray = field(repr=False)
    W: np.ndarray = field(repr=False)
    cluster_slices: tuple
    operators: GridOperators = field(repr=False)

    @property
    def U(self) -> LinearOperator:
        """1 + B (W - 1) B^T as a LinearOperator; U^T is its adjoint."""
        B, D = self.span, self.W - np.eye(self.W.shape[0])

        def apply(V):
            return V + B @ (D @ (B.T @ V))

        def apply_transpose(V):
            return V + B @ (D.T @ (B.T @ V))

        return LinearOperator((B.shape[0], B.shape[0]), matvec=apply, matmat=apply,
                              rmatvec=apply_transpose, rmatmat=apply_transpose,
                              dtype=np.float64)


@dataclass(frozen=True)
class FWHamiltonianReport:
    """The gamma^0-grading split and spectrum of a transformed Hamiltonian."""

    even_part_norm: float
    odd_part_norm: float
    eigenvalues: np.ndarray


# ----------------------------------------------------------------------
# free transform
# ----------------------------------------------------------------------


def free_fw(pbar: BarMomentum, m: float, rep: GammaRep) -> np.ndarray:
    """The 2x2 free FW rotation at momentum |p| = pbar.p2 (the Ritus label sqrt(k))."""
    if m <= 0:
        raise ArgumentError(f"mass must be positive, got {m}")
    p = abs(pbar.p2)
    beta = 0.5 * math.atan2(p, m)          # = |p| * theta(|p|^2), safe at p=0
    g2 = rep.gamma[2]
    return math.cos(beta) * np.eye(2, dtype=complex) + math.sin(beta) * g2


def free_fw_hamiltonian(pbar: BarMomentum, m: float, rep: GammaRep) -> np.ndarray:
    """gamma^0 sqrt(p^2 + m^2): the free Hamiltonian after the FW rotation."""
    if m <= 0:
        raise ArgumentError(f"mass must be positive, got {m}")
    return rep.gamma[0] * math.sqrt(pbar.p2**2 + m * m)


# ----------------------------------------------------------------------
# exact field transform
# ----------------------------------------------------------------------


def field_fw_from_levels(
    levels: Sequence[RitusLevel],
    ops: GridOperators,
    m: float,
) -> FWOperator:
    """Assemble the exact field FW operator from already-built levels."""
    if not levels:
        raise ArgumentError("need at least one level")
    grid = ops.grid
    sqh = math.sqrt(grid.h)

    cols: List[np.ndarray] = []
    grading: List[float] = []
    slices = []
    units = []
    pos = 0
    for lv in levels:
        if not lv.grid.same_as(grid):
            raise ArgumentError("levels and operators use different grids")
        occupied = [c for c in range(2) if np.any(lv.Ep[:, c] != 0.0)]
        Bn = np.real(lv.Ep[:, occupied]) * sqh          # ell^2-orthonormal
        Xnn = Bn.T @ (ops.X @ Bn)
        Xnn = 0.5 * (Xnn - Xnn.T)                        # kill rounding symmetric part
        Unn = expm(theta(lv.k, m) * Xnn)
        cols.append(Bn)
        units.append(Unn)
        slices.append(slice(pos, pos + len(occupied)))
        pos += len(occupied)
        for c in occupied:
            grading.append(1.0 if c == 0 else -1.0)

    return FWOperator(
        mass=m,
        levels=tuple(levels),
        span=np.hstack(cols),
        span_grading=np.array(grading),
        W=block_diag(*units),
        cluster_slices=tuple(slices),
        operators=ops,
    )


def _span_factors(fw: FWOperator):
    """(D, G, R): D = W - 1, G = B^T B and the thin QR factor R of the span B."""
    B = fw.span
    return fw.W - np.eye(fw.W.shape[0]), B.T @ B, np.linalg.qr(B, mode="r")


def _span_norm(R: np.ndarray, C: np.ndarray) -> float:
    """||B C B^T||_2 = ||R C R^T||_2, since B = Q R with orthonormal Q."""
    return float(np.linalg.norm(R @ C @ R.T, 2))


def unitarity_residual(fw: FWOperator) -> float:
    """Spectral norm ||U^dag U - 1||_2.

    With D = W - 1 and G = B^T B,
    U^T U - 1 = B (D + D^T + D^T G D) B^T, whose spectral norm is that of
    the L x L matrix R C R^T (R from a thin QR of B): exact, and never below
    the largest entry of U^T U - 1.
    """
    D, G, R = _span_factors(fw)
    return _span_norm(R, D + D.T + D.T @ G @ D)


def projector_commutation_residual(fw: FWOperator) -> float:
    """max over resolved clusters n of the spectral norm ||[U, P_n]||_2.

    P_n = B_n B_n^T = B E_n B^T with E_n the L x L selector of cluster n, so
    [U, P_n] = B (D G E_n - E_n G D) B^T with D = W - 1 and G = B^T B; its
    norm is taken exactly from the L x L factors, as in unitarity_residual.
    """
    D, G, R = _span_factors(fw)
    worst = 0.0
    for sl in fw.cluster_slices:
        E = np.zeros(G.shape[0])
        E[sl] = 1.0
        C = (D @ G) * E[None, :] - E[:, None] * (G @ D)
        worst = max(worst, _span_norm(R, C))
    return worst


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
    field operator pass U = fw.W, H and beta from restricted_hamiltonian:
    W is U compressed to the resolved span.
    """
    if U.shape != H.shape:
        raise ArgumentError(f"dimension mismatch: U {U.shape} vs H {H.shape}")
    return _graded_report(U @ H @ U.conj().T, beta)


def restricted_hamiltonian(fw: FWOperator, m: Optional[float] = None):
    """(H_r, beta_r): the Dirac Hamiltonian compressed to the resolved span.

    H_r = B^T H_D B with H_D = gamma^0 (gamma.Pi + m); beta_r is the exact
    gamma^0 grading of the span columns.
    """
    mm = fw.mass if m is None else m
    B = fw.span
    ops = fw.operators
    H_r = B.T @ (ops.g0diag[:, None] * (ops.X @ B)) + mm * np.diag(fw.span_grading)
    H_r = 0.5 * (H_r + H_r.T)
    return H_r, fw.span_grading.copy()


# ----------------------------------------------------------------------
# the factorization claim
# ----------------------------------------------------------------------


def verify_main_claim(fw: FWOperator, level: RitusLevel) -> float:
    """|| U E_p - E_p U_free(pbar) ||_F / ||E_p||_F.

    U is the exact field FW operator; U_free is built independently from
    the closed-form free rotation at pbar = (sqrt(k+m^2), 0, sqrt(k)), with
    the mass and gamma representation U was built with.
    """
    pbar = bar_momentum(level.k, fw.mass, +1)
    Ufree = free_fw(pbar, fw.mass, fw.operators.rep)
    lhs = fw.U @ level.Ep
    rhs = level.Ep @ Ufree
    h = level.grid.h
    num = math.sqrt(h) * float(np.linalg.norm(lhs - rhs))
    den = math.sqrt(h) * float(np.linalg.norm(level.Ep))
    return num / den


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
