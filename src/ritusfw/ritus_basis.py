"""Matrix eigenfunctions E_p assembled from paired scalar channels.

A level n >= 1 combines the zero-mode channel's level n with the partner
channel's level n-1 (the supersymmetric pair sharing the eigenvalue k).
The two functions are placed on the spinor slots dictated by the gamma
representation, giving a (2N) x 2 matrix E_p that diagonalizes (gamma.Pi)^2
and intertwines gamma.Pi with the free contraction gamma.pbar at
pbar = (p0, 0, sqrt(k)).  The level n = 0 is the zero mode: one column,
k = 0, annihilated by the spatial Dirac operator.

Sign conventions: the scalar solver fixes each phi's overall phase; on top
of that the paired column is sign-aligned so that the ladder overlap
<partner, (ladder) zero-channel-fn> is positive, which is what makes the
intertwining hold with the non-negative branch of sqrt(k).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clifford import SpinProjector
from .errors import ArgumentError, DiscretizationError, PairingError, TruncationError
from .operators import GridOperators, channel_slots
from .spectral_grid import Grid, ScalarSpectrum

__all__ = [
    "BarMomentum",
    "RitusLevel",
    "bar_momentum",
    "assemble_level",
    "on_shell_level",
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
    """Effective momentum pbar = (p0, 0, sqrt(k)) with on-shell energy E_D."""

    p0: float
    p1: float
    p2: float
    E_D: float

    @property
    def squared(self) -> float:
        return self.p0**2 - self.p1**2 - self.p2**2


def bar_momentum(k: float, m: float, branch: int = +1) -> BarMomentum:
    """On-shell bar momentum: E_D = sqrt(k + m^2), p0 = branch * E_D."""
    if k < 0:
        raise ArgumentError(f"k must be non-negative, got {k}")
    if m <= 0:
        raise ArgumentError(f"mass must be positive, got {m}")
    if branch not in (1, -1):
        raise ArgumentError(f"branch must be +1 or -1, got {branch}")
    E_D = math.sqrt(k + m * m)
    return BarMomentum(p0=branch * E_D, p1=0.0, p2=math.sqrt(k), E_D=E_D)


@dataclass(frozen=True)
class RitusLevel:
    """One assembled level: E_p, its quantum numbers, and bookkeeping.

    Ep has shape (2N, 2); for n = 0 the unpopulated column is zero and the
    projector records which spinor slot carries the zero mode.
    """

    n: int
    p0: float
    p_y: float
    k: float
    Ep: np.ndarray
    pbar: BarMomentum
    projector: SpinProjector
    grid: Grid
    zero_channel: int
    channel_eigenvalues: tuple


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
    The spinor slots follow ops.rep, and the ladder ops.A aligns the signs;
    ops must share the spectra's grid, p_y and charge.
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
        proj = np.zeros((2, 2))
        proj[slot, slot] = 1.0
        projector = SpinProjector(level=0, matrix=proj)
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

        u = spec_zero.eigenfunctions[:, n]          # zero channel, level n
        v = spec_other.eigenfunctions[:, n - 1]     # partner channel, level n-1

        # ladder alignment: the operator mapping the zero channel into the
        # partner channel is A^T (zero channel sigma=+1) or A (sigma=-1)
        ladder = ops.A.T if zc > 0 else ops.A
        overlap = grid.h * float(v @ (ladder @ u))
        if overlap < 0:
            v = -v

        Ep[slots[zc] * N:(slots[zc] + 1) * N, slots[zc]] = u
        Ep[slots[-zc] * N:(slots[-zc] + 1) * N, slots[-zc]] = v
        projector = SpinProjector(level=n, matrix=np.eye(2))
        channel_eigs = (k_zero, k_other)

    # E_D in pbar mirrors |p0|; it is the on-shell energy when the caller
    # assembles at p0 = +/- sqrt(k + m^2), and just a label off shell.
    pbar = BarMomentum(p0=float(p0), p1=0.0, p2=math.sqrt(max(k, 0.0)), E_D=abs(float(p0)))

    return RitusLevel(
        n=n,
        p0=float(p0),
        p_y=ops.p_y,
        k=k,
        Ep=Ep,
        pbar=pbar,
        projector=projector,
        grid=grid,
        zero_channel=zc,
        channel_eigenvalues=channel_eigs,
    )


def on_shell_level(level: RitusLevel, m: float, branch: int = +1) -> RitusLevel:
    """Copy of the level relabeled with the on-shell energy p0 = branch*sqrt(k+m^2)."""
    import dataclasses

    if level.k < 0:
        # only reachable through a flagged zero mode the solver kept negative
        raise DiscretizationError(
            f"level {level.n} has k = {level.k:.3e} < 0: the zero mode is not "
            "resolved inside the 1e-8 clamp window; refine the grid"
        )
    pbar = bar_momentum(level.k, m, branch)
    return dataclasses.replace(level, p0=pbar.p0, pbar=pbar)


# ----------------------------------------------------------------------
# verification operations
# ----------------------------------------------------------------------


def _weighted_fro(mat: np.ndarray, h: float) -> float:
    return math.sqrt(h) * float(np.linalg.norm(mat))


def verify_eigen_relation(level: RitusLevel, operators: GridOperators) -> float:
    """|| (gamma.Pi)^2 E_p - pbar^2 E_p ||_F / ||E_p||_F.

    (gamma.Pi)^2 is realized as p0^2 - Pi-tilde^2 on the grid, so the mass
    drops out of the relation.
    """
    h = level.grid.h
    lhs = (level.pbar.p0**2) * level.Ep - operators.PiTilde2 @ level.Ep
    rhs = level.pbar.squared * level.Ep
    return _weighted_fro(lhs - rhs, h) / _weighted_fro(level.Ep, h)


def verify_gpEp(level: RitusLevel, operators: GridOperators) -> float:
    """Intertwining residual || (gamma.Pi) E_p - E_p (gamma.pbar) ||_F / ||E_p||_F."""
    h = level.grid.h
    gamma = operators.rep.gamma
    gPi_E = level.pbar.p0 * (operators.g0diag[:, None] * level.Ep) - operators.X @ level.Ep
    g_pbar = level.pbar.p0 * gamma[0] - level.pbar.p2 * gamma[2]
    E_gpbar = level.Ep @ g_pbar
    return _weighted_fro(gPi_E - E_gpbar, h) / _weighted_fro(level.Ep, h)


def zero_mode_annihilation(level: RitusLevel, operators: GridOperators) -> float:
    """|| (gamma.Pi - gamma^0 p0) E_0 ||_F / ||E_0||_F, i.e. the spatial part alone."""
    h = level.grid.h
    return _weighted_fro(operators.X @ level.Ep, h) / _weighted_fro(level.Ep, h)


def dirac_overlap(level: RitusLevel, Z: np.ndarray, operators: GridOperators) -> np.ndarray:
    """The Dirac-adjoint overlap gamma^0 E^dag gamma^0 Z (quadrature weight h).

    Z has 2N rows; the result has one row per column of E and one column
    per column of Z.
    """
    g0, g0diag, h, E = operators.rep.gamma[0], operators.g0diag, operators.h, level.Ep
    return g0 @ (h * (E.conj().T @ (g0diag[:, None] * Z)))


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

    L = len(levels)
    out = np.zeros((2 * L, 2 * L), dtype=complex)
    for i, lv_i in enumerate(levels):
        for j, lv_j in enumerate(levels):
            out[2 * i:2 * i + 2, 2 * j:2 * j + 2] = dirac_overlap(lv_i, lv_j.Ep, operators)
    return out


def completeness_residual(levels: Sequence[RitusLevel], test: np.ndarray,
                          operators: GridOperators) -> float:
    """|| test - sum_p E_p (quadrature of Ebar_p test) || / || test ||."""
    test = np.asarray(test)
    nrm = float(np.linalg.norm(test))
    if nrm == 0.0:
        raise ArgumentError("test function is identically zero")
    acc = np.zeros_like(test, dtype=complex)
    for lv in levels:
        acc = acc + lv.Ep @ dirac_overlap(lv, test[:, None], operators)[:, 0]
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
