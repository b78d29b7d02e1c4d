"""Foldy-Wouthuysen transformations: free, exact-in-field, and 1/m iteration.

The free transform is the closed-form 2x2 rotation

    U = cos(|p| theta) + (gamma.p / |p|) sin(|p| theta),
    tan(2 |p| theta) = |p| / m,

which block-diagonalizes H = gamma^0 (gamma.p + m) into gamma^0 sqrt(p^2+m^2).

In a static magnetic field the same construction goes through with |p|
replaced by the square root of Pi-tilde^2 = (gamma^0 gamma.Pi)^2: the angle
function theta(k) = arctan(sqrt(k)/m) / (2 sqrt(k)) is applied spectrally.
Numerically the operator is built cluster by cluster on the resolved span:
each paired level contributes a 2x2 generator X_nn = B_n^T X B_n, exactly
real antisymmetric because the spatial Dirac operator X is, so
X_nn = x_n J with J = [[0, 1], [-1, 0]], and its exponential is the rotation

    W_n = expm(theta_n X_nn) = [[cos a_n, sin a_n], [-sin a_n, cos a_n]],
    a_n = theta_n x_n,

taken in closed form.  U = 1 + sum_n B_n (W_n - 1) B_n^T
is exactly unitary, commutes with the eigenprojectors by construction, and
is the identity on the zero-mode cluster (a 1x1 antisymmetric block is 0,
so W_0 = 1).  Off the resolved span U acts as the identity.  U is never
formed: it is kept as the factors B = [B_0 | B_1 | ...] (2N x L) and the
block-diagonal W = diag(W_n) (L x L), U = 1 + B (W - 1) B^T, and applied as
that low-rank update of the identity.  Its checks reduce to L x L algebra on
W - 1, B^T B and the thin QR factor of B, computed once per operator, and W
itself is U compressed to the resolved span.  X acts on B once, giving
K = B^T X B: its diagonal 2x2 blocks are the generators X_nn, and the
restricted Hamiltonian is L x L for any mass.  The main claim applies U
once to the stacked levels E and compares with E times the block-diagonal
free rotations.

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
    """The exact field FW operator U = 1 + B (W - 1) B^T (2N x 2N), kept as factors.

    levels are the levels U was built from, W the block-diagonal L x L
    matrix holding one 2x2 (or 1x1) rotation per level at cluster_slices,
    K = B^T X B the spatial Dirac operator compressed to the resolved span B
    (``span``, the populated columns of the levels' E scaled to be
    ell^2-orthonormal), and rep the gamma representation U was built in.
    The span's columns, their grading and the clusters follow from the
    levels.  ``apply`` applies U to grid vectors; ``factors`` holds the
    L x L factors its checks read.
    """

    mass: float
    levels: RitusLevels = field(repr=False)
    W: np.ndarray = field(repr=False)
    K: np.ndarray = field(repr=False)
    rep: GammaRep = field(repr=False)

    @property
    def span(self) -> np.ndarray:
        """B, gathered from the levels' E on each read: E holds the same numbers."""
        return _gather_span(self.levels)

    @property
    def span_grading(self) -> np.ndarray:
        """The gamma^0 grading of the span columns: +1 on spinor slot 0, -1 on slot 1."""
        return np.where(np.flatnonzero(self.levels.projector) % 2, -1.0, 1.0)

    @property
    def cluster_slices(self) -> tuple:
        """Each level's columns of the span: one for the zero mode, then two per level."""
        return (slice(0, 1), *(slice(2 * n - 1, 2 * n + 1) for n in range(1, len(self.levels))))

    @cached_property
    def factors(self):
        """(D, G, R): D = W - 1, G = B^T B and the thin QR factor R of B, built on first read."""
        B = self.span
        return self.W - np.eye(self.W.shape[0]), B.T @ B, np.linalg.qr(B, mode="r")

    def apply(self, V: np.ndarray) -> np.ndarray:
        """U V = V + B ((W - 1)(B^T V)) for a grid vector or matrix V."""
        B = self.span
        UV = B @ ((self.W - np.eye(self.W.shape[0])) @ (B.T @ V))
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


def _gather_span(levels: RitusLevels) -> np.ndarray:
    """The populated columns of the levels' E, scaled to be ell^2-orthonormal (C order)."""
    B = np.ascontiguousarray(levels.E[:, levels.projector > 0])
    B *= math.sqrt(levels.grid.h)
    return B


def field_fw_from_levels(levels: RitusLevels, ops: GridOperators, m: float) -> FWOperator:
    """Assemble the exact field FW operator from levels; only their E and k enter.

    The span B holds the populated columns of E, scaled to be
    ell^2-orthonormal: the zero mode's column, then both columns of each
    later level.  Level n's rotation angle is theta(k_n) times the coupling
    x_n = (K_01 - K_10) / 2 of its diagonal block of K = B^T X B (the mean
    of the two entries kills K's rounding-level symmetric part).
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

    B = _gather_span(levels)
    K = B.T @ (ops.X @ B)
    W = np.eye(B.shape[1])
    for n, k in enumerate(levels.k[1:].tolist(), start=1):
        i, j = 2 * n - 1, 2 * n         # level n's columns of the span
        a = theta(k, m) * 0.5 * (K[i, j] - K[j, i])
        W[i:j + 1, i:j + 1] = [[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]]
    return FWOperator(mass=m, levels=levels, W=W, K=K, rep=ops.rep)


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
    D, G, R = fw.factors
    return _span_norm(R, D + D.T + D.T @ G @ D)


def projector_commutation_residual(fw: FWOperator) -> float:
    """max over resolved clusters n of the spectral norm ||[U, P_n]||_2.

    P_n = B_n B_n^T = B E_n B^T with E_n the L x L selector of cluster n, so
    [U, P_n] = B (D G E_n - E_n G D) B^T with D = W - 1 and G = B^T B; its
    norm is taken exactly from the L x L factors, as in unitarity_residual.
    """
    D, G, R = fw.factors
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
    gamma^0 grading of the span columns.  Each column lives on one spinor
    slot, so H_r = diag(beta_r) (K + m): L x L work for any mass.
    """
    mm = fw.mass if m is None else m
    beta = fw.span_grading
    H_r = beta[:, None] * fw.K + mm * np.diag(beta)
    H_r = 0.5 * (H_r + H_r.T)
    return H_r, beta.copy()


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
    UE = fw.apply(E)        # the span apply gathers is freed before the block product
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
