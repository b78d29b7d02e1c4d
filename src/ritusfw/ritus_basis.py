"""Matrix eigenfunctions E_p assembled from paired scalar channels.

A level n >= 1 combines the zero-mode channel's level n with the partner
channel's level n-1 (the supersymmetric pair sharing the eigenvalue k).
The two functions are placed on the spinor slots dictated by the gamma
representation, giving a (2N) x 2 matrix E_p that diagonalizes (gamma.Pi)^2
and intertwines gamma.Pi with the free contraction gamma.pbar at
pbar = (p0, 0, sqrt(k)).  The level n = 0 is the zero mode: one column,
k = 0, annihilated by the spatial Dirac operator.

Sign conventions: the scalar solver fixes each phi's overall phase; on top
of that the paired column is sign-aligned by the intertwining itself,
X E_p = E_p (sqrt(k) gamma^2): the entry of h E_p^T X E_p that couples the
two slots gets the sign of gamma^2's entry there, so the intertwining holds
with the non-negative branch of sqrt(k).

The levels of one run are one record, ``RitusLevels``: the (2N, 2L) matrix
E = [E_0 | E_1 | ...] and the labels k_n, with the run's p0, p_y and grid;
level n is the column pair 2n, 2n + 1.  ``assemble_levels`` writes E once.
Every check over the levels is one function of E: the grid operator acts
on E once, the free-form side is E times the block-diagonal matrix of the
levels' 2x2 blocks (``times_blocks``), and the per-level residuals are the
norms of the column pairs of the one result.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .clifford import GammaRep
from .errors import ArgumentError, PairingError, TruncationError
from .operators import GridOperators, band_product, channel_slots
from .spectral_grid import Grid, ScalarSpectrum

__all__ = [
    "BarMomentum",
    "RitusLevels",
    "assemble_levels",
    "times_blocks",
    "verify_eigen_relation",
    "verify_gpEp",
    "zero_mode_annihilation",
    "dirac_overlap",
    "orthonormality_matrix",
    "completeness_residual",
    "export_levels_csv",
]

PAIRING_TOL = 1e-6     # relative gap allowed between a level's partner eigenvalues


@dataclass(frozen=True)
class BarMomentum:
    """Effective momentum pbar = (p0, 0, p2); a level's is (p0, 0, sqrt(k))."""

    p0: float
    p2: float

    @property
    def squared(self) -> float:
        return self.p0**2 - self.p2**2

    def slash(self, rep: GammaRep) -> np.ndarray:
        """gamma.pbar = p0 gamma^0 - p2 gamma^2."""
        return self.p0 * rep.gamma[0] - self.p2 * rep.gamma[2]


@dataclass(frozen=True, eq=False)
class RitusLevels:
    """The levels 0..L-1 of one run: E, the labels k, and where the zero mode sits.

    E is the (2N, 2L) matrix [E_0 | E_1 | ...] in Fortran order, so that
    level n's E_p, ``Ep(n)``, is the contiguous column pair 2n, 2n + 1; it
    is read-only, since the operators built on E (the field FW operator)
    read it again later.  Level n carries the label k[n] and
    pbar = (p0, 0, sqrt(k[n])).  The zero-mode channel's functions fill the
    columns 2n + zero_slot, its partner's the other column of each pair
    n >= 1; level 0's column 1 - zero_slot is zero.
    """

    E: np.ndarray
    k: np.ndarray
    p0: float
    p_y: float
    grid: Grid
    zero_channel: int
    zero_slot: int

    def __post_init__(self):
        if self.k.size == 0 or self.E.shape[1] != 2 * self.k.size:
            raise ArgumentError(
                f"need two columns of E per level and at least one level, got "
                f"{self.E.shape[1]} columns for {self.k.size} levels"
            )

    def __len__(self) -> int:
        return self.k.size

    def Ep(self, n: int) -> np.ndarray:
        """Level n's (2N, 2) E_p, a view of E."""
        return self.E[:, 2 * n:2 * n + 2]

    @property
    def pbar(self) -> list:
        """Each level's BarMomentum(p0, sqrt(k)), a negative k (a flagged zero mode) read as 0."""
        return [BarMomentum(self.p0, p2) for p2 in np.sqrt(np.maximum(self.k, 0.0)).tolist()]

    @property
    def projector(self) -> np.ndarray:
        """The diagonal of diag(Pi(0), ..., Pi(L-1)), Pi(n) the spin projector of level n.

        Pi(n) is the 0/1 diagonal of E_p's populated columns: the identity
        for n >= 1, rank 1 on the zero mode's slot for n = 0.
        """
        P = np.ones(self.E.shape[1])
        P[1 - self.zero_slot] = 0.0
        return P

    def norms(self, R: np.ndarray) -> np.ndarray:
        """sqrt(h) ||R_n||_F of each column pair R_n of a (2N, 2L) R, e.g. a residual.

        Each norm sums its pair in R's memory order: contiguously for a
        Fortran-ordered R, row by row (through a copy) for a C-ordered one.
        """
        sqh = math.sqrt(self.grid.h)
        return np.array([sqh * float(np.linalg.norm(R[:, 2 * n:2 * n + 2]))
                         for n in range(len(self))])


def times_blocks(E: np.ndarray, S: np.ndarray) -> np.ndarray:
    """E @ blockdiag(S_0, ..., S_{L-1}) for a (2N, 2L) E and (L, 2, 2) blocks S.

    One batched product of each column pair with its block: O(N L), where
    the dense block-diagonal product would be O(N L^2).
    """
    n_rows, L = E.shape[0], S.shape[0]
    out = np.empty((L, 2, n_rows))      # the (n_rows, 2L) result in Fortran order
    np.matmul(E.reshape(n_rows, L, 2).transpose(1, 0, 2), S, out=out.transpose(0, 2, 1))
    return out.transpose(2, 0, 1).reshape(n_rows, 2 * L)


def _zero_channel(spec_plus: ScalarSpectrum, spec_minus: ScalarSpectrum) -> int:
    """The channel hosting the lowest eigenvalue (the zero mode)."""
    return +1 if spec_plus.eigenvalues[0] <= spec_minus.eigenvalues[0] else -1


def assemble_levels(
    spec_plus: ScalarSpectrum,
    spec_minus: ScalarSpectrum,
    n_max: int,
    p0: float,
    ops: GridOperators,
) -> RitusLevels:
    """Build the levels 0..n_max from the two channel spectra, in one E.

    Level 0 takes the zero-mode channel's ground state alone; level n >= 1
    pairs the zero-mode channel's level n with the partner channel's level
    n-1 (the eigenvalues must agree within PAIRING_TOL relative, checked for
    all levels at once) and averages k.  The spinor slots follow ops.rep,
    and ops.X aligns the signs; ops must share the spectra's grid, p_y and
    charge.
    """
    if n_max < 0:
        raise ArgumentError(f"n_max must be non-negative, got {n_max}")
    if spec_plus.sigma != +1 or spec_minus.sigma != -1:
        raise ArgumentError("pass the sigma=+1 spectrum first and sigma=-1 second")
    if not spec_plus.grid.same_as(spec_minus.grid):
        raise PairingError("channel spectra were computed on different grids")
    if abs(spec_plus.p_y - spec_minus.p_y) > 0 or spec_plus.e != spec_minus.e:
        raise PairingError("channel spectra differ in p_y or charge")
    if (not ops.grid.same_as(spec_plus.grid) or ops.p_y != spec_plus.p_y
            or ops.e != spec_plus.e):
        raise ArgumentError("operators and spectra differ in grid, p_y or charge")

    N, L = spec_plus.grid.n_points, n_max + 1
    zc = _zero_channel(spec_plus, spec_minus)
    spec_zero = spec_plus if zc > 0 else spec_minus
    spec_other = spec_minus if zc > 0 else spec_plus
    if L > spec_zero.eigenvalues.size or n_max > spec_other.eigenvalues.size:
        raise TruncationError(
            f"level {n_max} needs channel levels ({n_max}, {n_max - 1}); not all stored"
        )
    k_zero, k_other = spec_zero.eigenvalues[1:L], spec_other.eigenvalues[:n_max]
    mismatch = np.abs(k_zero - k_other) / np.maximum(
        np.maximum(np.abs(k_zero), np.abs(k_other)), 1e-300)
    unpaired = np.flatnonzero(mismatch > PAIRING_TOL)
    if unpaired.size:
        i = unpaired[0]
        raise PairingError(
            f"partner eigenvalues k={k_zero[i]:.9g} and k={k_other[i]:.9g} differ by "
            f"{mismatch[i]:.2e} relative (> {PAIRING_TOL:.0e}); channels do not pair"
        )
    k = np.concatenate([spec_zero.eigenvalues[:1], 0.5 * (k_zero + k_other)])

    # the zero-mode channel's level n in column 2n + a, the partner's level
    # n-1 in column 2n + b; level 0's column b stays zero
    a = channel_slots(ops.rep)[zc]
    b = 1 - a
    E = np.zeros((2 * N, 2 * L), order="F")
    E[a * N:(a + 1) * N, a::2] = spec_zero.eigenfunctions[:, :L]
    # X E_p = E_p (sqrt(k) gamma^2): the (b, a) coupling of E_p^T X E_p,
    # v^T X_ba u with X's block (b, a), has the sign of gamma^2[b, a];
    # flip v before placing it, so no -0.0
    v = spec_other.eigenfunctions[:, :n_max]
    # level 0's column rides along, so that the product never has no columns
    Xu = band_product(ops.X.blocks[b][a], E[a * N:(a + 1) * N, a::2])[:, 1:]
    flip = np.einsum("ij,ij->j", v, Xu) * ops.rep.gamma[2][b, a].real < 0
    E[b * N:(b + 1) * N, b + 2::2] = np.where(flip, -v, v)
    E.flags.writeable = False
    return RitusLevels(E=E, k=k, p0=float(p0), p_y=ops.p_y, grid=spec_plus.grid,
                       zero_channel=zc, zero_slot=a)


# ----------------------------------------------------------------------
# verification operations
# ----------------------------------------------------------------------


def verify_eigen_relation(levels: RitusLevels, spec_plus: ScalarSpectrum,
                          spec_minus: ScalarSpectrum, rep: GammaRep) -> np.ndarray:
    """|| (gamma.Pi)^2 E_p - pbar^2 E_p ||_F / ||E_p||_F of each level.

    (gamma.Pi)^2 is realized as p0^2 - Pi-tilde^2 on the grid, so the mass
    drops out of the relation.  Pi-tilde^2 acts on each spinor slot as the
    channel Hamiltonian that channel_slots(rep) places there, once on E.
    """
    E, N = levels.E, levels.grid.n_points
    slots = channel_slots(rep)
    residual = np.zeros(E.shape)  # C order, as H @ E_p of one level: its norm sums row by row
    for spec in (spec_plus, spec_minus):
        rows = slice(slots[spec.sigma] * N, (slots[spec.sigma] + 1) * N)
        band_product(spec.hamiltonian, E[rows], out=residual[rows], symmetric=True)  # Pi-tilde^2 E
    np.subtract(levels.p0**2 * E, residual, out=residual)
    residual -= np.repeat([pbar.squared for pbar in levels.pbar], 2) * E
    return levels.norms(residual) / levels.norms(E)


def verify_gpEp(levels: RitusLevels, operators: GridOperators) -> np.ndarray:
    """Intertwining residual || (gamma.Pi) E_p - E_p (gamma.pbar) ||_F / ||E_p||_F of each level."""
    E = levels.E
    XE = operators.X @ E
    residual = operators.g0diag[:, None] * E        # Fortran order, as E
    residual *= levels.p0
    residual -= XE                                  # (gamma.Pi) E
    del XE                                          # one grid-sized temporary at a time
    # gamma.pbar is real: gamma^0 and gamma^2 are
    residual -= times_blocks(E, np.array([pbar.slash(operators.rep).real for pbar in levels.pbar]))
    return levels.norms(residual) / levels.norms(E)


def zero_mode_annihilation(levels: RitusLevels, operators: GridOperators) -> float:
    """|| (gamma.Pi - gamma^0 p0) E_0 ||_F / ||E_0||_F, i.e. the spatial part alone."""
    sqh, E0 = math.sqrt(levels.grid.h), levels.Ep(0)
    return ((sqh * float(np.linalg.norm(operators.X @ E0)))
            / (sqh * float(np.linalg.norm(E0))))


def dirac_overlap(E: np.ndarray, Z: np.ndarray, operators: GridOperators) -> np.ndarray:
    """The Dirac-adjoint overlaps gamma^0 E_i^dag gamma^0 Z (quadrature weight h).

    E stacks the (2N, 2) matrices E_i of L levels side by side, Z has 2N
    rows.  All overlaps come from the one product h E^dag (g0diag * Z);
    gamma^0 then acts on each pair of rows.  Rows 2i, 2i+1 of the (2L, c)
    result belong to E_i, one column per column of Z.
    """
    g0, g0diag, h = operators.rep.gamma[0], operators.g0diag, operators.h
    G = h * (E.conj().T @ (g0diag[:, None] * Z))
    return (g0 @ G.reshape(-1, 2, G.shape[1])).reshape(G.shape)


def orthonormality_matrix(levels: RitusLevels, operators: GridOperators) -> np.ndarray:
    """Gram matrix of Dirac-adjoint overlaps, blocks gamma^0 E_i^dag gamma^0 E_j.

    Diagonal blocks equal the spin projector Pi(n_i); everything else
    vanishes to quadrature accuracy.  Shape (2L, 2L), complex.
    """
    return dirac_overlap(levels.E, levels.E, operators)


def completeness_residual(levels: RitusLevels, test: np.ndarray,
                          operators: GridOperators) -> float:
    """|| test - sum_p E_p (quadrature of Ebar_p test) || / || test ||."""
    test = np.asarray(test)
    nrm = float(np.linalg.norm(test))
    if nrm == 0.0:
        raise ArgumentError("test function is identically zero")
    E = levels.E
    return float(np.linalg.norm(test - E @ dirac_overlap(E, test[:, None], operators)[:, 0])) / nrm


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------


def export_levels_csv(levels: RitusLevels, m: float, path) -> None:
    """CSV columns n,k,p0,py,E_D."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["n", "k", "p0", "py", "E_D"])
        for n, k in enumerate(levels.k.tolist()):
            wr.writerow([
                n,
                format(k, ".12g"),
                format(levels.p0, ".12g"),
                format(levels.p_y, ".12g"),
                format(math.sqrt(k + m * m), ".12g"),
            ])
