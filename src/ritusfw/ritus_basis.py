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
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clifford import GammaRep
from .errors import ArgumentError, PairingError, TruncationError
from .operators import GridOperators, channel_slots
from .spectral_grid import Grid, ScalarSpectrum

__all__ = [
    "BarMomentum",
    "RitusLevel",
    "assemble_level",
    "verify_eigen_relation",
    "verify_gpEp",
    "zero_mode_annihilation",
    "dirac_overlap",
    "orthonormality_matrix",
    "completeness_residual",
    "export_levels_csv",
]


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
    """

    n: int
    p0: float
    p_y: float
    k: float
    Ep: np.ndarray
    grid: Grid
    zero_channel: int
    channel_eigenvalues: tuple

    @property
    def pbar(self) -> BarMomentum:
        return BarMomentum(self.p0, math.sqrt(max(self.k, 0.0)))

    @property
    def projector(self) -> np.ndarray:
        """Pi(n), the diagonal 0/1 matrix of Ep's populated columns: the identity
        for n >= 1, rank 1 on the slot carrying the zero mode for n = 0."""
        return np.diag(np.any(self.Ep != 0.0, axis=0).astype(float))


def _zero_channel(spec_plus: ScalarSpectrum, spec_minus: ScalarSpectrum) -> int:
    """The channel hosting the lowest eigenvalue (the zero mode)."""
    return +1 if spec_plus.eigenvalues[0] <= spec_minus.eigenvalues[0] else -1


def assemble_level(
    spec_plus: ScalarSpectrum,
    spec_minus: ScalarSpectrum,
    n: int,
    p0: float,
    ops: GridOperators,
    pairing_tol: float = 1e-6,
) -> RitusLevel:
    """Build E_p for level n from the two channel spectra.

    n = 0 takes the zero-mode channel's ground state alone; n >= 1 pairs the
    zero-mode channel's level n with the partner channel's level n-1 (the
    eigenvalues must agree within pairing_tol relative) and averages k.
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
    Ep = np.zeros((2 * N, 2))

    if n == 0:
        if spec_zero.eigenvalues.size < 1:
            raise TruncationError("zero-mode channel has no stored level")
        k = float(spec_zero.eigenvalues[0])
        slot = slots[zc]
        Ep[slot * N:(slot + 1) * N, slot] = spec_zero.eigenfunctions[:, 0]
        channel_eigs = (k,)
    else:
        if n >= spec_zero.eigenvalues.size or (n - 1) >= spec_other.eigenvalues.size:
            raise TruncationError(
                f"level {n} needs channel levels ({n}, {n - 1}); not all stored"
            )
        k_zero = float(spec_zero.eigenvalues[n])
        k_other = float(spec_other.eigenvalues[n - 1])
        mismatch = abs(k_zero - k_other) / max(abs(k_zero), abs(k_other), 1e-300)
        if mismatch > pairing_tol:
            raise PairingError(
                f"partner eigenvalues k={k_zero:.9g} and k={k_other:.9g} differ by "
                f"{mismatch:.2e} relative (> {pairing_tol:.0e}); channels do not pair"
            )
        k = 0.5 * (k_zero + k_other)

        a, b = slots[zc], slots[-zc]
        v = spec_other.eigenfunctions[:, n - 1]     # partner channel, level n-1
        Ep[a * N:(a + 1) * N, a] = spec_zero.eigenfunctions[:, n]

        # X E_p = E_p (sqrt(k) gamma^2): the (b, a) coupling of E_p^T X E_p
        # has the sign of gamma^2[b, a]; flip v before placing it, so no -0.0
        if float(v @ (ops.X @ Ep[:, a])[b * N:(b + 1) * N]) * ops.rep.gamma[2][b, a].real < 0:
            v = -v
        Ep[b * N:(b + 1) * N, b] = v
        channel_eigs = (k_zero, k_other)

    return RitusLevel(
        n=n,
        p0=float(p0),
        p_y=ops.p_y,
        k=k,
        Ep=Ep,
        grid=grid,
        zero_channel=zc,
        channel_eigenvalues=channel_eigs,
    )


# ----------------------------------------------------------------------
# verification operations
# ----------------------------------------------------------------------


def _weighted_fro(mat: np.ndarray, h: float) -> float:
    return math.sqrt(h) * float(np.linalg.norm(mat))


def verify_eigen_relation(level: RitusLevel, spec_plus: ScalarSpectrum,
                          spec_minus: ScalarSpectrum, rep: GammaRep) -> float:
    """|| (gamma.Pi)^2 E_p - pbar^2 E_p ||_F / ||E_p||_F.

    (gamma.Pi)^2 is realized as p0^2 - Pi-tilde^2 on the grid, so the mass
    drops out of the relation.  Pi-tilde^2 acts on each spinor slot as the
    channel Hamiltonian that channel_slots(rep) places there.
    """
    h, N = level.grid.h, level.grid.n_points
    slots = channel_slots(rep)
    PiE = np.empty_like(level.Ep)
    for spec in (spec_plus, spec_minus):
        rows = slice(slots[spec.sigma] * N, (slots[spec.sigma] + 1) * N)
        PiE[rows] = spec.hamiltonian @ level.Ep[rows]
    lhs = (level.pbar.p0**2) * level.Ep - PiE
    rhs = level.pbar.squared * level.Ep
    return _weighted_fro(lhs - rhs, h) / _weighted_fro(level.Ep, h)


def verify_gpEp(level: RitusLevel, operators: GridOperators) -> float:
    """Intertwining residual || (gamma.Pi) E_p - E_p (gamma.pbar) ||_F / ||E_p||_F."""
    h = level.grid.h
    gPi_E = level.pbar.p0 * (operators.g0diag[:, None] * level.Ep) - operators.X @ level.Ep
    E_gpbar = level.Ep @ level.pbar.slash(operators.rep)
    return _weighted_fro(gPi_E - E_gpbar, h) / _weighted_fro(level.Ep, h)


def zero_mode_annihilation(level: RitusLevel, operators: GridOperators) -> float:
    """|| (gamma.Pi - gamma^0 p0) E_0 ||_F / ||E_0||_F, i.e. the spatial part alone."""
    h = level.grid.h
    return _weighted_fro(operators.X @ level.Ep, h) / _weighted_fro(level.Ep, h)


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
    grid = levels[0].grid
    for lv in levels[1:]:
        if not lv.grid.same_as(grid):
            raise ArgumentError("orthonormality_matrix needs a shared grid")
        if lv.p0 != levels[0].p0 or lv.p_y != levels[0].p_y:
            raise ArgumentError("orthonormality_matrix needs shared (p0, p_y)")
    seen = [lv.n for lv in levels]
    if len(set(seen)) != len(seen):
        warnings.warn("duplicate levels passed to orthonormality_matrix", stacklevel=2)

    E = np.hstack([lv.Ep for lv in levels])
    return dirac_overlap(E, E, operators)


def completeness_residual(levels: Sequence[RitusLevel], test: np.ndarray,
                          operators: GridOperators) -> float:
    """|| test - sum_p E_p (quadrature of Ebar_p test) || / || test ||."""
    test = np.asarray(test)
    nrm = float(np.linalg.norm(test))
    if nrm == 0.0:
        raise ArgumentError("test function is identically zero")
    acc = np.zeros_like(test, dtype=complex)
    for lv in levels:
        acc = acc + lv.Ep @ dirac_overlap(lv.Ep, test[:, None], operators)[:, 0]
    return float(np.linalg.norm(test - acc)) / nrm


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
