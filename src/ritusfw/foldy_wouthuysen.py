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
a scipy LinearOperator.  Its checks reduce to L x L algebra.

The 1/m route (bd_iteration) applies the textbook step U_j = exp(i S_j)
with S_j = -i beta O_j / (2m), O_j the gamma^0-odd part of the current
Hamiltonian; for a static field each step suppresses the odd part by two
more powers of 1/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np
from scipy.linalg import block_diag, expm
from scipy.sparse.linalg import LinearOperator

from .clifford import GammaRep, make_rep
from .errors import ArgumentError, TruncationError
from .field_profiles import FieldProfile
from .operators import GridOperators
from .ritus_basis import BarMomentum, RitusLevel, assemble_level, bar_momentum, on_shell_level
from .spectral_grid import Grid, solve_channel

__all__ = [
    "FWOperator",
    "FWHamiltonianReport",
    "theta",
    "free_fw",
    "free_fw_hamiltonian",
    "field_fw",
    "field_fw_from_levels",
    "low_rank_operator",
    "transform_hamiltonian",
    "verify_main_claim",
    "bd_iteration",
    "fw_series_hamiltonian",
    "unitarity_residual",
    "projector_commutation_residual",
    "restricted_hamiltonian",
    "restricted_fw",
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
    """A unitary FW operator: free (2x2), field (2N x 2N) or field-restricted (L x L).

    U is a dense array for the free and restricted kinds.  For the field kind
    it is a LinearOperator applying 1 + B (W - 1) B^T, and the factors are
    kept: the resolved span B (ell^2-orthonormal columns), the block-diagonal
    W holding one 2x2 (or 1x1) rotation per level at cluster_slices, and the
    gamma^0 grading of the span columns.
    """

    kind: str
    U: Union[np.ndarray, LinearOperator]
    theta_spec: str
    mass: float
    rep_variant: str = "first"
    levels: Optional[tuple] = None
    span: Optional[np.ndarray] = field(default=None, repr=False)
    span_grading: Optional[np.ndarray] = field(default=None, repr=False)
    W: Optional[np.ndarray] = field(default=None, repr=False)
    cluster_slices: Optional[tuple] = None
    grid: Optional[Grid] = None
    operators: Optional[GridOperators] = field(default=None, repr=False)


@dataclass(frozen=True)
class FWHamiltonianReport:
    """U H U^dag along with its gamma^0-grading split and spectrum."""

    transformed: np.ndarray
    even_part_norm: float
    odd_part_norm: float
    eigenvalues: np.ndarray


# ----------------------------------------------------------------------
# free transform
# ----------------------------------------------------------------------


def free_fw(pbar: BarMomentum, m: float, rep: GammaRep) -> FWOperator:
    """Free FW rotation at momentum |p| = pbar.p2 (the Ritus label sqrt(k))."""
    if m <= 0:
        raise ArgumentError(f"mass must be positive, got {m}")
    p = abs(pbar.p2)
    beta = 0.5 * math.atan2(p, m)          # = |p| * theta(|p|^2), safe at p=0
    g2 = rep.gamma[2]
    U = math.cos(beta) * np.eye(2, dtype=complex) + math.sin(beta) * g2
    return FWOperator(
        kind="free",
        U=U,
        theta_spec=f"theta = arctan(|p|/m)/(2|p|), |p|={p:.12g}, m={m:.12g}",
        mass=m,
        rep_variant=rep.variant,
    )


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

    B = np.hstack(cols)
    W = block_diag(*units)

    return FWOperator(
        kind="field",
        U=low_rank_operator(B, W),
        theta_spec="theta(k) = arctan(sqrt(k)/m)/(2 sqrt(k)) on resolved clusters; "
                   f"identity off-span, m={m:.12g}",
        mass=m,
        rep_variant=ops.rep.variant,
        levels=tuple(levels),
        span=B,
        span_grading=np.array(grading),
        W=W,
        cluster_slices=tuple(slices),
        grid=grid,
        operators=ops,
    )


def field_fw(
    profile: FieldProfile,
    p_y: float,
    e: float,
    m: float,
    grid: Grid,
    rep: GammaRep,
    n_max: int,
    spectra=None,
    operators: Optional[GridOperators] = None,
) -> FWOperator:
    """Exact FW operator for the field profile, resolved through level n_max.

    Pass ``spectra=(spec_plus, spec_minus)`` to reuse channel solves; each
    must hold at least n_max + 1 levels.
    """
    if n_max < 1:
        raise TruncationError("need n_max >= 1 resolved levels")
    if spectra is None:
        spec_p = solve_channel(profile, p_y, e, +1, grid, n_levels=n_max + 1)
        spec_m = solve_channel(profile, p_y, e, -1, grid, n_levels=n_max + 1)
    else:
        spec_p, spec_m = spectra
    ops = operators or GridOperators(rep, profile, p_y, e, grid)
    levels = []
    for n in range(n_max + 1):
        lv = assemble_level(spec_p, spec_m, n, p0=0.0, p_y=p_y, rep=rep)
        levels.append(on_shell_level(lv, m))
    return field_fw_from_levels(levels, ops, m)


def low_rank_operator(B: np.ndarray, W: np.ndarray) -> LinearOperator:
    """U = 1 + B (W - 1) B^T as a LinearOperator; U^T is its adjoint."""
    D = W - np.eye(W.shape[0])

    def apply(V):
        return V + B @ (D @ (B.T @ V))

    def apply_transpose(V):
        return V + B @ (D.T @ (B.T @ V))

    return LinearOperator((B.shape[0], B.shape[0]), matvec=apply, matmat=apply,
                          rmatvec=apply_transpose, rmatmat=apply_transpose,
                          dtype=np.float64)


def _span_factors(fw: FWOperator):
    """(D, G, R): D = W - 1, G = B^T B and the thin QR factor R of the span B."""
    B = fw.span
    return fw.W - np.eye(fw.W.shape[0]), B.T @ B, np.linalg.qr(B, mode="r")


def _span_norm(R: np.ndarray, C: np.ndarray) -> float:
    """||B C B^T||_2 = ||R C R^T||_2, since B = Q R with orthonormal Q."""
    return float(np.linalg.norm(R @ C @ R.T, 2))


def unitarity_residual(fw: FWOperator) -> float:
    """Spectral norm ||U^dag U - 1||_2.

    For the field kind, with D = W - 1 and G = B^T B,
    U^T U - 1 = B (D + D^T + D^T G D) B^T, whose spectral norm is that of
    the L x L matrix R C R^T (R from a thin QR of B): exact, and never below
    the largest entry of U^T U - 1.  Other kinds use the dense U.
    """
    if fw.span is None:
        U = fw.U
        return float(np.linalg.norm(U.conj().T @ U - np.eye(U.shape[0]), 2))
    D, G, R = _span_factors(fw)
    return _span_norm(R, D + D.T + D.T @ G @ D)


def projector_commutation_residual(fw: FWOperator) -> float:
    """max over resolved clusters n of the spectral norm ||[U, P_n]||_2.

    P_n = B_n B_n^T = B E_n B^T with E_n the L x L selector of cluster n, so
    [U, P_n] = B (D G E_n - E_n G D) B^T with D = W - 1 and G = B^T B; its
    norm is taken exactly from the L x L factors, as in unitarity_residual.
    """
    if fw.span is None:
        return 0.0
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


def _default_grading(dim: int) -> np.ndarray:
    if dim % 2:
        raise ArgumentError("default gamma^0 grading needs even dimension")
    beta = np.ones(dim)
    beta[dim // 2:] = -1.0
    return beta


def transform_hamiltonian(
    fw: FWOperator,
    H: np.ndarray,
    beta: Optional[np.ndarray] = None,
) -> FWHamiltonianReport:
    """U H U^dag with even/odd norms and spectrum.

    beta is the diagonal gamma^0 grading (+/-1 per basis vector).  Default:
    upper half +1, lower half -1, matching the spinor-slot (kron) layout of
    grid operators and the 2x2 free case.  Pass the span grading when
    transforming matrices restricted to a Ritus cluster basis.  The field
    kind is rejected: compress it with restricted_fw first.
    """
    if fw.kind == "field":
        raise ArgumentError("transform_hamiltonian needs a free or restricted operator; "
                            "use restricted_fw on a field-kind operator")
    U = fw.U
    if U.shape != H.shape:
        raise ArgumentError(f"dimension mismatch: U {U.shape} vs H {H.shape}")
    if beta is None:
        beta = _default_grading(H.shape[0])
    T = U @ H @ U.conj().T
    mask = np.outer(beta, beta) > 0
    even = np.where(mask, T, 0.0)
    odd = np.where(mask, 0.0, T)
    herm = 0.5 * (T + T.conj().T)
    eigs = np.linalg.eigvalsh(herm)
    return FWHamiltonianReport(
        transformed=T,
        even_part_norm=float(np.linalg.norm(even)),
        odd_part_norm=float(np.linalg.norm(odd)),
        eigenvalues=eigs,
    )


def restricted_hamiltonian(fw: FWOperator, m: Optional[float] = None):
    """(H_r, beta_r): the Dirac Hamiltonian compressed to the resolved span.

    H_r = B^T H_D B with H_D = gamma^0 (gamma.Pi + m); beta_r is the exact
    gamma^0 grading of the span columns.
    """
    if fw.span is None:
        raise ArgumentError("restricted_hamiltonian needs a field-kind operator")
    mm = fw.mass if m is None else m
    B = fw.span
    ops = fw.operators
    H_r = B.T @ (ops.g0diag[:, None] * (ops.X @ B)) + mm * np.diag(fw.span_grading)
    H_r = 0.5 * (H_r + H_r.T)
    return H_r, fw.span_grading.copy()


def restricted_fw(fw: FWOperator) -> FWOperator:
    """The field FW operator compressed to the resolved span (block diagonal)."""
    if fw.span is None:
        raise ArgumentError("restricted_fw needs a field-kind operator")
    return FWOperator(
        kind="field-restricted",
        U=fw.W.copy(),
        theta_spec=fw.theta_spec,
        mass=fw.mass,
        rep_variant=fw.rep_variant,
        levels=fw.levels,
        span_grading=fw.span_grading.copy(),
        cluster_slices=fw.cluster_slices,
        grid=fw.grid,
    )


# ----------------------------------------------------------------------
# the factorization claim
# ----------------------------------------------------------------------


def verify_main_claim(fw: FWOperator, level: RitusLevel, m: float, rep: GammaRep) -> float:
    """|| U E_p - E_p U_free(pbar) ||_F / ||E_p||_F.

    U is the exact field FW operator; U_free is built independently from
    the closed-form free rotation at pbar = (sqrt(k+m^2), 0, sqrt(k)).
    """
    pbar = bar_momentum(level.k, m, +1)
    Ufree = free_fw(pbar, m, rep).U
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
    beta: Optional[np.ndarray] = None,
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
    H = np.asarray(H, dtype=float)
    if beta is None:
        beta = _default_grading(H.shape[0])
    mask = np.outer(beta, beta) > 0

    reports = []
    cur = H
    for _ in range(steps):
        odd = np.where(mask, 0.0, cur)
        gen = (beta[:, None] * odd) / (2.0 * m)      # beta O / 2m, antisymmetric
        U = expm(gen)
        cur = U @ cur @ U.T
        odd_n = float(np.linalg.norm(np.where(mask, 0.0, cur)))
        even_n = float(np.linalg.norm(np.where(mask, cur, 0.0)))
        reports.append(
            FWHamiltonianReport(
                transformed=cur,
                even_part_norm=even_n,
                odd_part_norm=odd_n,
                eigenvalues=np.linalg.eigvalsh(0.5 * (cur + cur.T)),
            )
        )
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
