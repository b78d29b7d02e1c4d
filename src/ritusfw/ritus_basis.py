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

The levels of one run are held stacked, as ``RitusLevels``: one (2N, 2L)
matrix E = [E_0 | E_1 | ...], of which each level's E_p is a view.  Every
check over the levels is one function of E: the grid operator acts on E
once, the free-form side is E times the block-diagonal matrix of the
levels' 2x2 blocks (``times_blocks``), and the per-level residuals are the
norms of the column pairs of the one result.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .clifford import GammaRep
from .errors import ArgumentError, PairingError, TruncationError
from .operators import GridOperators, band_product, channel_slots
from .spectral_grid import Grid, ScalarSpectrum

__all__ = [
    "BarMomentum",
    "RitusLevel",
    "RitusLevels",
    "assemble_level",
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


@dataclass(frozen=True)
class RitusLevel:
    """One assembled level: E_p, its quantum numbers, and bookkeeping.

    Ep has shape (2N, 2); for n = 0 the unpopulated column is zero.
    populated lists the columns of Ep that carry a channel function.
    """

    n: int
    p0: float
    p_y: float
    k: float
    Ep: np.ndarray
    grid: Grid
    zero_channel: int
    channel_eigenvalues: tuple
    populated: tuple

    @property
    def pbar(self) -> BarMomentum:
        return BarMomentum(self.p0, math.sqrt(max(self.k, 0.0)))

    @property
    def projector(self) -> np.ndarray:
        """Pi(n), the diagonal 0/1 matrix of Ep's populated columns: the identity
        for n >= 1, rank 1 on the slot carrying the zero mode for n = 0."""
        return np.diag([float(c in self.populated) for c in range(2)])


class RitusLevels(tuple):
    """Levels on one grid, with their E_p stacked once.

    E is the (2N, 2L) matrix [E_0 | E_1 | ...] in Fortran order; each
    level's Ep is the view of its column pair 2i, 2i + 1, which the Fortran
    order keeps contiguous.  E is read-only, and so is every Ep view: the
    operators built from E (the FW span) read it again later.  Indexing and
    iteration give the RitusLevel records; a slice is a plain tuple.  A
    sequence of levels stacks into a new E, with each level's Ep replaced
    by its view; a RitusLevels passes through unchanged.  The levels keep
    their own p0 and p_y.
    """

    E: np.ndarray

    def __new__(cls, levels: Sequence[RitusLevel]):
        if isinstance(levels, RitusLevels):
            return levels
        levels = tuple(levels)
        if not levels:
            raise ArgumentError("need at least one level")
        first = levels[0]
        for lv in levels[1:]:
            if not lv.grid.same_as(first.grid):
                raise ArgumentError("stacked levels need a shared grid")
        E = np.empty((2 * first.grid.n_points, 2 * len(levels)), order="F")
        for i, lv in enumerate(levels):
            E[:, 2 * i:2 * i + 2] = lv.Ep
        E.flags.writeable = False
        self = super().__new__(cls, (replace(lv, Ep=E[:, 2 * i:2 * i + 2])
                                     for i, lv in enumerate(levels)))
        self.E = E
        return self

    def norms(self, R: np.ndarray) -> np.ndarray:
        """sqrt(h) ||R_i||_F of each column pair R_i of a (2N, 2L) R, e.g. a residual.

        Each norm sums its pair in R's memory order: contiguously for a
        Fortran-ordered R, row by row (through a copy) for a C-ordered one.
        """
        sqh = math.sqrt(self[0].grid.h)
        return np.array([sqh * float(np.linalg.norm(R[:, 2 * i:2 * i + 2]))
                         for i in range(len(self))])


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


def assemble_level(
    spec_plus: ScalarSpectrum,
    spec_minus: ScalarSpectrum,
    n: int,
    p0: float,
    ops: GridOperators,
) -> RitusLevel:
    """Build E_p for level n from the two channel spectra.

    n = 0 takes the zero-mode channel's ground state alone; n >= 1 pairs the
    zero-mode channel's level n with the partner channel's level n-1 (the
    eigenvalues must agree within PAIRING_TOL relative) and averages k.
    The spinor slots follow ops.rep, and ops.X aligns the signs; ops must
    share the spectra's grid, p_y and charge.
    """
    if n < 0:
        raise ArgumentError(f"level must be non-negative, got {n}")
    if spec_plus.sigma != +1 or spec_minus.sigma != -1:
        raise ArgumentError("pass the sigma=+1 spectrum first and sigma=-1 second")
    if not spec_plus.grid.same_as(spec_minus.grid):
        raise PairingError("channel spectra were computed on different grids")
    if abs(spec_plus.p_y - spec_minus.p_y) > 0 or spec_plus.e != spec_minus.e:
        raise PairingError("channel spectra differ in p_y or charge")
    if (not ops.grid.same_as(spec_plus.grid) or ops.p_y != spec_plus.p_y
            or ops.e != spec_plus.e):
        raise ArgumentError("operators and spectra differ in grid, p_y or charge")

    grid = spec_plus.grid
    N = grid.n_points
    zc = _zero_channel(spec_plus, spec_minus)
    spec_zero = spec_plus if zc > 0 else spec_minus
    spec_other = spec_minus if zc > 0 else spec_plus
    slots = channel_slots(ops.rep)
    Ep = np.zeros((2 * N, 2), order="F")

    if n == 0:
        if spec_zero.eigenvalues.size < 1:
            raise TruncationError("zero-mode channel has no stored level")
        k = float(spec_zero.eigenvalues[0])
        slot = slots[zc]
        Ep[slot * N:(slot + 1) * N, slot] = spec_zero.eigenfunctions[:, 0]
        channel_eigs = (k,)
        populated = (slot,)
    else:
        if n >= spec_zero.eigenvalues.size or (n - 1) >= spec_other.eigenvalues.size:
            raise TruncationError(
                f"level {n} needs channel levels ({n}, {n - 1}); not all stored"
            )
        k_zero = float(spec_zero.eigenvalues[n])
        k_other = float(spec_other.eigenvalues[n - 1])
        mismatch = abs(k_zero - k_other) / max(abs(k_zero), abs(k_other), 1e-300)
        if mismatch > PAIRING_TOL:
            raise PairingError(
                f"partner eigenvalues k={k_zero:.9g} and k={k_other:.9g} differ by "
                f"{mismatch:.2e} relative (> {PAIRING_TOL:.0e}); channels do not pair"
            )
        k = 0.5 * (k_zero + k_other)

        a, b = slots[zc], slots[-zc]
        v = spec_other.eigenfunctions[:, n - 1]     # partner channel, level n-1
        Ep[a * N:(a + 1) * N, a] = spec_zero.eigenfunctions[:, n]

        # X E_p = E_p (sqrt(k) gamma^2): the (b, a) coupling of E_p^T X E_p,
        # v^T X_ba u with X's block (b, a), has the sign of gamma^2[b, a];
        # flip v before placing it, so no -0.0
        Xu = band_product(ops.X.blocks[b][a], Ep[a * N:(a + 1) * N, a])
        if float(v @ Xu) * ops.rep.gamma[2][b, a].real < 0:
            v = -v
        Ep[b * N:(b + 1) * N, b] = v
        channel_eigs = (k_zero, k_other)
        populated = (0, 1)

    return RitusLevel(
        n=n,
        p0=float(p0),
        p_y=ops.p_y,
        k=k,
        Ep=Ep,
        grid=grid,
        zero_channel=zc,
        channel_eigenvalues=channel_eigs,
        populated=populated,
    )


# ----------------------------------------------------------------------
# verification operations
# ----------------------------------------------------------------------


def verify_eigen_relation(levels: Sequence[RitusLevel], spec_plus: ScalarSpectrum,
                          spec_minus: ScalarSpectrum, rep: GammaRep) -> np.ndarray:
    """|| (gamma.Pi)^2 E_p - pbar^2 E_p ||_F / ||E_p||_F of each level.

    (gamma.Pi)^2 is realized as p0^2 - Pi-tilde^2 on the grid, so the mass
    drops out of the relation.  Pi-tilde^2 acts on each spinor slot as the
    channel Hamiltonian that channel_slots(rep) places there, once on the
    stacked E.
    """
    levels = RitusLevels(levels)
    E, N = levels.E, levels[0].grid.n_points
    slots = channel_slots(rep)
    residual = np.zeros(E.shape)  # C order, as H @ E_p of one level: its norm sums row by row
    for spec in (spec_plus, spec_minus):
        rows = slice(slots[spec.sigma] * N, (slots[spec.sigma] + 1) * N)
        band_product(spec.hamiltonian, E[rows], out=residual[rows], symmetric=True)  # Pi-tilde^2 E
    np.subtract(np.repeat([lv.p0**2 for lv in levels], 2) * E, residual, out=residual)
    residual -= np.repeat([lv.pbar.squared for lv in levels], 2) * E
    return levels.norms(residual) / levels.norms(E)


def verify_gpEp(levels: Sequence[RitusLevel], operators: GridOperators) -> np.ndarray:
    """Intertwining residual || (gamma.Pi) E_p - E_p (gamma.pbar) ||_F / ||E_p||_F of each level."""
    levels = RitusLevels(levels)
    E = levels.E
    XE = operators.X @ E
    residual = operators.g0diag[:, None] * E        # Fortran order, as E
    residual *= np.repeat([lv.p0 for lv in levels], 2)
    residual -= XE                                  # (gamma.Pi) E
    del XE                                          # one grid-sized temporary at a time
    # gamma.pbar is real: gamma^0 and gamma^2 are
    residual -= times_blocks(E, np.array([lv.pbar.slash(operators.rep).real for lv in levels]))
    return levels.norms(residual) / levels.norms(E)


def zero_mode_annihilation(level: RitusLevel, operators: GridOperators) -> float:
    """|| (gamma.Pi - gamma^0 p0) E_0 ||_F / ||E_0||_F, i.e. the spatial part alone."""
    sqh = math.sqrt(level.grid.h)
    return ((sqh * float(np.linalg.norm(operators.X @ level.Ep)))
            / (sqh * float(np.linalg.norm(level.Ep))))


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


def orthonormality_matrix(levels: Sequence[RitusLevel], operators: GridOperators) -> np.ndarray:
    """Gram matrix of Dirac-adjoint overlaps, blocks gamma^0 E_i^dag gamma^0 E_j.

    Diagonal blocks equal the spin projector Pi(n_i); everything else
    vanishes to quadrature accuracy.  Shape (2L, 2L), complex.
    """
    if not levels:
        return np.zeros((0, 0), dtype=complex)
    levels = RitusLevels(levels)
    for lv in levels[1:]:
        if lv.p0 != levels[0].p0 or lv.p_y != levels[0].p_y:
            raise ArgumentError("orthonormality_matrix needs shared (p0, p_y)")
    seen = [lv.n for lv in levels]
    if len(set(seen)) != len(seen):
        warnings.warn("duplicate levels passed to orthonormality_matrix", stacklevel=2)
    return dirac_overlap(levels.E, levels.E, operators)


def completeness_residual(levels: Sequence[RitusLevel], test: np.ndarray,
                          operators: GridOperators) -> float:
    """|| test - sum_p E_p (quadrature of Ebar_p test) || / || test ||."""
    test = np.asarray(test)
    nrm = float(np.linalg.norm(test))
    if nrm == 0.0:
        raise ArgumentError("test function is identically zero")
    if not levels:
        return 1.0
    E = RitusLevels(levels).E
    return float(np.linalg.norm(test - E @ dirac_overlap(E, test[:, None], operators)[:, 0])) / nrm


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------


def export_levels_csv(levels: Sequence[RitusLevel], m: float, path) -> None:
    """CSV columns n,k,p0,py,E_D."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["n", "k", "p0", "py", "E_D"])
        for lv in levels:
            E_D = math.sqrt(lv.k + m * m)
            wr.writerow([
                lv.n,
                format(lv.k, ".12g"),
                format(lv.p0, ".12g"),
                format(lv.p_y, ".12g"),
                format(E_D, ".12g"),
            ])
