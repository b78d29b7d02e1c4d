"""Matrix eigenfunctions E_p assembled from paired scalar channels.

A level n >= 1 combines the zero-mode channel's level n with the partner
channel's level n-1 (the supersymmetric pair sharing the eigenvalue k).
The two functions are placed on the spinor slots dictated by the gamma
representation, giving a (2N) x 2 matrix E_p that diagonalizes (gamma.Pi)^2
and intertwines gamma.Pi with the free contraction gamma^mu pbar_mu at
pbar = (p0, 0, sqrt(k)), p0 the energy the propagator is given: the field is
static, so the levels do not depend on p0.  The free side depends on a level
through k alone, so it is held as arrays over the levels: p2 = sqrt(k) and
the shells sqrt(max(k, 0) + m^2) of ``RitusLevels.shells``, which every
check reads.  The level n = 0 is the zero mode: one column, k = 0,
annihilated by the spatial Dirac operator.

Sign conventions: the scalar solver fixes each phi's overall phase; on top
of that the paired column is sign-aligned by the intertwining itself,
X E_p = E_p (sqrt(k) gamma^2): the entry of h E_p^T X E_p that couples the
two slots gets the sign of gamma^2's entry there, so the intertwining holds
with the non-negative branch of sqrt(k).

Each column of E_p lives on one spinor slot, so ``RitusLevels`` holds the
levels as two (N, L) blocks F[s], one per slot, with the labels k_n and
the ``GridOperators`` they were built with.  The zero-mode
channel's block is a view of its eigenfunctions; the partner's is the one
copy.  A channel Hamiltonian acts on its own slot's block, X (which only
couples the two slots) maps one block onto the other slot; the Gram matrix
G = h E^T E and K = h E^T X E are the blocks' per-slot and cross-slot products,
each built once.  A 2L x 2L matrix over the levels keeps the column order
of E = [E_0 | E_1 | ...]: column 2n + s is level n's function on slot s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArgumentError, PairingError, TruncationError
from .operators import GridOperators, band_product, channel_slots
from .spectral_grid import ScalarSpectrum

__all__ = [
    "RitusLevels",
    "assemble_levels",
    "verify_eigen_relation",
    "verify_gpEp",
    "zero_mode_annihilation",
]

PAIRING_TOL = 1e-6     # relative gap allowed between a level's partner eigenvalues


@dataclass(frozen=True, eq=False)
class RitusLevels:
    """The levels 0..L-1 of one run: their two slot blocks, the labels k, the operators.

    F = (F[0], F[1]), two read-only (N, L) blocks: column n of F[s] is level
    n's function on spinor slot s.  F[zero_slot] is a view of the zero-mode
    channel's eigenfunctions; the other block holds the partner channel's,
    sign-aligned, after a zero column for level 0.  Level n carries the label
    k[n], and p2[n] = sqrt(k[n]).  ops are the grid operators the levels
    were built with: every check over the levels reads its grid, p_y,
    operators and gamma representation there.
    """

    F: tuple
    k: np.ndarray
    ops: GridOperators
    zero_slot: int

    def __post_init__(self):
        if self.k.size == 0 or any(f.shape[1] != self.k.size for f in self.F):
            raise ArgumentError(
                f"need one column per level in each slot block and at least one level, got "
                f"{[f.shape[1] for f in self.F]} columns for {self.k.size} levels"
            )

    def __len__(self) -> int:
        return self.k.size

    @property
    def p2(self) -> np.ndarray:
        """Each level's pbar_2 = sqrt(k), a negative k (a flagged zero mode) read as 0."""
        return np.sqrt(np.maximum(self.k, 0.0))

    def shells(self, m: float) -> np.ndarray:
        """Each level's on-shell energy sqrt(p2^2 + m^2) = sqrt(max(k, 0) + m^2) at mass m."""
        return np.sqrt(np.maximum(self.k, 0.0) + m * m)

    @property
    def projector(self) -> np.ndarray:
        """The diagonal of diag(Pi(0), ..., Pi(L-1)), Pi(n) the spin projector of level n.

        Pi(n) is the 0/1 diagonal of E_p's populated columns: the identity
        for n >= 1, rank 1 on the zero mode's slot for n = 0.
        """
        P = np.ones(2 * len(self))
        P[1 - self.zero_slot] = 0.0
        return P

    @cached_property
    def gram(self) -> np.ndarray:
        """G = h E^T E (2L x 2L, read-only) from the per-slot products h F[s]^T F[s].

        Its entries coupling two slots, and the zero mode's empty row and
        column, are exactly 0.  It is also the Dirac-adjoint Gram matrix
        gamma^0 E^T gamma^0 E: the two diagonal gamma^0 cancel on each slot.
        """
        G = np.zeros((2 * len(self), 2 * len(self)))
        for s, f in enumerate(self.F):
            G[s::2, s::2] = self.ops.h * (f.T @ f)
        G.flags.writeable = False
        return G

    @cached_property
    def K(self) -> np.ndarray:
        """K = h E^T X E (2L x 2L, read-only) from the cross-slot products h F[s]^T X[s] F[t]."""
        K = np.zeros((2 * len(self), 2 * len(self)))
        for s, t in ((0, 1), (1, 0)):
            K[s::2, t::2] = self.ops.h * (self.F[s].T @ self.cross(s))
        K.flags.writeable = False
        return K

    @property
    def sq_norms(self) -> np.ndarray:
        """h ||E_p||_F^2 of each level: the trace of its 2x2 diagonal block of the Gram matrix."""
        return np.diag(self.gram).reshape(-1, 2).sum(axis=1)

    def cross(self, s: int) -> np.ndarray:
        """X E's slot s, X[s] F[t] with t = 1 - s: X couples the two slots only."""
        return band_product(self.ops.X[s], self.F[1 - s])


def _zero_channel(spec_plus: ScalarSpectrum, spec_minus: ScalarSpectrum) -> int:
    """The channel hosting the lowest eigenvalue (the zero mode)."""
    return +1 if spec_plus.eigenvalues[0] <= spec_minus.eigenvalues[0] else -1


def assemble_levels(
    spec_plus: ScalarSpectrum,
    spec_minus: ScalarSpectrum,
    n_max: int,
    ops: GridOperators,
) -> RitusLevels:
    """Build the levels 0..n_max from the two channel spectra, as two slot blocks.

    Level 0 takes the zero-mode channel's ground state alone; level n >= 1
    pairs the zero-mode channel's level n with the partner channel's level
    n-1 (the eigenvalues must agree within PAIRING_TOL relative, checked for
    all levels at once) and averages k.  The spinor slots follow ops.rep,
    and ops.X aligns the signs.  The spectra are the eigenpairs of ops.H,
    and the levels keep ops.
    """
    if n_max < 0:
        raise ArgumentError(f"n_max must be non-negative, got {n_max}")
    if spec_plus.sigma != +1 or spec_minus.sigma != -1:
        raise ArgumentError("pass the sigma=+1 spectrum first and sigma=-1 second")

    L = n_max + 1
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

    # the zero-mode channel's level n on slot a, the partner's level n-1 on
    # slot b; level 0's column of slot b stays zero
    a = channel_slots(ops.rep)[zc]
    b = 1 - a
    F = [None, None]
    F[a] = spec_zero.eigenfunctions[:, :L]
    F[b] = np.zeros_like(F[a])
    # X E_p = E_p (sqrt(k) gamma^2): the (b, a) coupling of E_p^T X E_p,
    # v^T X[b] u with X's block (b, a), has the sign of gamma^2[b, a];
    # flip v before placing it, so no -0.0.  Level 0's column of u rides
    # along, so that the product never has no columns
    v = spec_other.eigenfunctions[:, :n_max]
    Xu = band_product(ops.X[b], F[a])[:, 1:]
    flip = np.einsum("ij,ij->j", v, Xu) * ops.rep.gamma[2][b, a].real < 0
    F[b][:, 1:] = np.where(flip, -v, v)
    for f in F:
        f.flags.writeable = False
    return RitusLevels(F=tuple(F), k=k, ops=ops, zero_slot=a)


# ----------------------------------------------------------------------
# verification operations
# ----------------------------------------------------------------------


def _relative(levels: RitusLevels, residuals) -> np.ndarray:
    """||R_n||_F / ||E_p||_F of each level n, R_n the n-th columns of the per-slot residuals."""
    sq = sum(np.einsum("ij,ij->j", r, r) for r in residuals)
    return np.sqrt(levels.ops.h * sq / levels.sq_norms)


def verify_eigen_relation(levels: RitusLevels) -> np.ndarray:
    """|| Pi-tilde^2 E_p - max(k, 0) E_p ||_F / ||E_p||_F of each level.

    The grid realizes (gamma.Pi)^2 as the energy squared minus Pi-tilde^2,
    so this is (gamma.Pi)^2 E_p = pbar^2 E_p with that square cancelled.
    Pi-tilde^2 acts on each spinor slot as the channel Hamiltonian
    levels.ops.H[sigma] of the channel that channel_slots places there.
    """
    slots = channel_slots(levels.ops.rep)
    k = np.maximum(levels.k, 0.0)
    residuals = []
    for sigma in (+1, -1):
        f = levels.F[slots[sigma]]
        residuals.append(band_product(levels.ops.H[sigma], f) - k * f)
    return _relative(levels, residuals)


def verify_gpEp(levels: RitusLevels) -> np.ndarray:
    """Intertwining residual || (gamma.Pi) E_p - E_p gamma^mu pbar_mu ||_F / ||E_p||_F, per level.

    gamma.Pi = p0 gamma^0 - X and gamma^mu pbar_mu = p0 gamma^0 - p2 gamma^2.
    gamma^0 is diagonal, so its terms cancel exactly on each slot, and
    gamma^2 couples the two slots as X does: the residual on slot s is
    X[s] F[t] - p2 gamma^2[s, t] F[s], t = 1 - s.
    """
    g2 = levels.ops.rep.gamma[2].real
    return _relative(levels, [levels.cross(s) - (levels.p2 * g2[s, 1 - s]) * levels.F[s]
                              for s in (0, 1)])


def zero_mode_annihilation(levels: RitusLevels) -> float:
    """|| (gamma.Pi - gamma^0 p0) E_0 ||_F / ||E_0||_F, i.e. the spatial part alone.

    E_0 lives on the zero slot a alone, so X E_0 is X[b], X's block (b, a), on it.
    """
    a = levels.zero_slot
    sqh, u = math.sqrt(levels.ops.h), levels.F[a][:, 0]
    return ((sqh * float(np.linalg.norm(band_product(levels.ops.X[1 - a], u))))
            / (sqh * float(np.linalg.norm(u))))
