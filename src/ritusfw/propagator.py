"""Ritus diagonalization of the fermion propagator.

Per level, the propagator in the Ritus basis is the free-form 2x2 matrix
S(pbar) = (gamma^mu pbar_mu + m) / (pbar^2 - m^2) at pbar = (p0, 0, sqrt(k)),
one closed form for all levels at once from p0 and the array p2 = sqrt(k).
The check: factor (gamma.Pi - m) on the grid once at fixed off-shell p0,
solve for the Ritus level columns, take their Dirac-adjoint overlaps, and
compare the diagonal blocks against the free form (the spin projector cuts
the zero-mode block down to its populated slot).  Cross-level blocks must
vanish to quadrature accuracy.  A p0 within POLE_GUARD of a level's shell
sqrt(max(k_n, 0) + m^2), ``RitusLevels.shells``, is refused.

With the spinor slots interleaved, q = 2i + s for grid point i and slot s,
gamma.Pi - m is a band matrix of half-width BAND = 5 (``_dirac_band``),
factored and solved once per p0 by banded Gaussian elimination with partial
pivoting (``_solve``, LAPACK xGBTRF/xGBTRS; Golub & Van Loan, Matrix
Computations, section 4.3): O(N) time and memory per p0, and deterministic.
The right-hand sides are written from the level blocks straight into that
order, and the overlaps read per slot.
"""

from __future__ import annotations

import numpy as np

from .clifford import GammaRep
from .errors import ArgumentError, ConditioningError
from .ritus_basis import RitusLevels

__all__ = ["diagonal_propagator", "project_propagator", "pole_sweep"]

BAND = 5  # half-bandwidth of gamma.Pi - m in the interleaved spinor order
POLE_GUARD = 1e-3  # a p0 closer than this to a level's shell |p0| = levels.shells(m) is refused
SWEEP_LEVEL = 1  # the level whose shell pole_sweep approaches
SWEEP_DISTANCES = (0.2, 0.1, 0.05, 0.025, 0.0125)  # pole_sweep's distances below that shell


def diagonal_propagator(p0: float, p2: np.ndarray, m: float, rep: GammaRep) -> np.ndarray:
    """The (L, 2, 2) closed forms S(pbar) = (gamma^mu pbar_mu + m)/(pbar^2 - m^2).

    Real, one block per entry of p2, at pbar = (p0, 0, p2).  Off every shell
    by the guard of ``project_propagator``, which keeps |pbar^2 - m^2| at
    least POLE_GUARD (|p0| + shell), shell = sqrt(p2^2 + m^2).
    """
    denom = p0**2 - np.float_power(p2, 2) - m * m     # pbar^2 - m^2, p2 squared by libm's pow
    # gamma^mu pbar_mu = p0 gamma^0 - p2 gamma^2: gamma^0 and gamma^2 are real in both reps
    slash = p0 * rep.gamma[0].real - p2[:, None, None] * rep.gamma[2].real
    # times 1/denom, as numpy divides a complex by a real: the report's digits rest on it
    return (slash + m * np.eye(2)) * (1.0 / denom)[:, None, None]


def _near(p0: float, shells: np.ndarray) -> np.ndarray:
    """The levels n, in order, with ||p0| - shells[n]| < POLE_GUARD: the one pole check."""
    return np.flatnonzero(np.abs(abs(p0) - shells) < POLE_GUARD)


def _dirac_band(levels: RitusLevels, p0: float, m: float) -> np.ndarray:
    """gamma.Pi - m = p0 gamma^0 - X - m at energy p0, in LAPACK general band storage.

    The interleaved order q = 2i + s takes entry (i, i + d) of X[s], X's
    block (s, t) with t = 1 - s, to (q, r) = (2i + s, 2(i + d) + t), so -X
    fills the rows 2*BAND - 2d + s - t: the odd offsets q - r = +/-1, +/-3,
    +/-5.  gamma^0 is diagonal (it anticommutes with gamma^1 and gamma^2,
    which couple the two slots), so p0 gamma^0 - m is the diagonal.  D1
    reaches d = +/-2, so the half-bandwidth is BAND = 5 on both sides.
    Entry (q, r) sits at ab[2*BAND + q - r, r]; the BAND rows on top are the
    room xGBTRF needs for fill-in.  Shape (4*BAND + 1, 2N), in Fortran
    order, so that xGBTRF factors it in place.
    """
    ops = levels.ops
    N = ops.M.size
    ab = np.zeros((4 * BAND + 1, 2 * N), order="F")
    for s, xb in enumerate(ops.X):
        t = 1 - s
        for d in range(-2, 3):
            lo, hi = max(d, 0), N + min(d, 0)
            ab[2 * BAND - 2 * d + s - t, 2 * lo + t:2 * hi + t:2] = -xb[2 - d, lo:hi]
    ab[2 * BAND] = np.tile(p0 * np.diag(ops.rep.gamma[0]).real - m, N)
    return ab


def _solve(levels: RitusLevels, p0: float, m: float, rhs: np.ndarray) -> np.ndarray:
    """(gamma.Pi - m)^-1 rhs at p0, rhs (2N, c) in the interleaved order q = 2i + s.

    Refused within POLE_GUARD of any level's shell.  One banded LU with
    partial pivoting (xGBTRF), kept here and solved once (xGBTRS), in place
    when rhs is a Fortran-ordered float array.  An exactly zero pivot raises
    ConditioningError.
    """
    shells = levels.shells(m)
    close = _near(p0, shells)
    if close.size:
        n = close[0]
        raise ConditioningError(
            f"p0 = {p0:.6g} is within {abs(abs(p0) - shells[n]):.2e} of the on-shell energy "
            f"sqrt(max(k_{n}, 0) + m^2) = {shells[n]:.6g}; solve too ill-conditioned"
        )
    from scipy.linalg.lapack import dgbtrf, dgbtrs

    lu, piv, info = dgbtrf(_dirac_band(levels, p0, m), BAND, BAND, overwrite_ab=True)
    if info > 0:
        raise ConditioningError(
            f"gamma.Pi - m is singular at p0 = {p0:.6g}: pivot {info} of its banded LU is 0"
        )
    return dgbtrs(lu, BAND, BAND, rhs, piv, overwrite_b=True)[0]


def _overlaps(levels: RitusLevels, p0: float, m: float, n: slice) -> np.ndarray:
    """The Dirac-adjoint overlaps gamma^0 E_i^T gamma^0 Z_j of levels i, j in n, Z = _solve(E).

    E is written in the solver's interleaved order, F[t][:, j] on the rows
    t::2 of column 2j + t.  The two gamma^0 cancel on each slot, so row
    2i + s of the (2l, 2l) result is h F[s][:, i]^T Z[s::2].
    """
    F = [f[:, n] for f in levels.F]
    rhs = np.zeros((2 * F[0].shape[0], 2 * F[0].shape[1]), order="F")
    for s, f in enumerate(F):
        rhs[s::2, s::2] = f
    Z = _solve(levels, p0, m, rhs)
    out = np.empty((rhs.shape[1], rhs.shape[1]))
    for s, f in enumerate(F):
        out[s::2] = levels.ops.h * (f.T @ Z[s::2])
    return out


def project_propagator(levels: RitusLevels, p0: float, m: float) -> dict:
    """Grid-inverted propagator between Ritus levels, as Dirac-adjoint overlaps.

    Returns a dict with the (L, L) array of 2x2 blocks, the worst
    diagonal-block deviation from the free form, and the worst cross-level
    block norm.
    """
    L = len(levels)
    # rows 2i, 2i+1 belong to level i, columns 2j, 2j+1 to level j
    blocks = _overlaps(levels, p0, m, slice(None)).reshape(L, 2, L, 2).transpose(0, 2, 1, 3)
    diagonal = blocks[np.arange(L), np.arange(L)]

    free = diagonal_propagator(p0, levels.p2, m, levels.ops.rep)
    P = levels.projector.reshape(L, 2)[:, :, None] * np.eye(2)     # each level's Pi(n)
    norms = np.linalg.norm(blocks, axis=(2, 3))
    np.fill_diagonal(norms, 0.0)

    return {
        "blocks": blocks,
        "diagonal_error": float(np.abs(diagonal - P @ free @ P).max()),
        "cross_norm": float(norms.max()),
        "diagonal_norms": [float(np.linalg.norm(block)) for block in diagonal],
    }


def pole_sweep(levels: RitusLevels, m: float) -> dict:
    """Approach the on-shell energy of level SWEEP_LEVEL and fit the pole exponent.

    p0 = sqrt(max(k_n, 0) + m^2) - d (``levels.shells``) for n = SWEEP_LEVEL
    and each distance d in SWEEP_DISTANCES; fits log ||block_nn|| ~ -gamma *
    log |p0^2 - (k_n + m^2)| and returns gamma (expected 1) plus the sweep
    rows.  Each p0 solves for the target level's two columns alone; the
    conditioning guard still covers every level.  A p0 that lies within
    POLE_GUARD of another level's shell is skipped; if fewer than 3 points
    are left, ConditioningError names those shells.
    """
    n_target, distances = SWEEP_LEVEL, SWEEP_DISTANCES
    if not 0 <= n_target < len(levels):
        raise ArgumentError(f"level n={n_target} not among the supplied levels")
    k = float(levels.k[n_target])
    shells = levels.shells(m)
    E_on = float(shells[n_target])

    rows, crowding = [], set()
    for d in distances:
        p0 = E_on - d
        close = _near(p0, shells)
        close = close[close != n_target]
        if close.size:
            crowding.update(close.tolist())
            continue
        block = _overlaps(levels, p0, m, slice(n_target, n_target + 1))
        rows.append({
            "p0": float(p0),
            "n": int(n_target),
            "block_norm": float(np.linalg.norm(block)),
            "offshellness": abs(p0 * p0 - (k + m * m)),
        })
    if crowding and len(rows) < 3:
        raise ConditioningError(
            f"the sweep toward level {n_target}'s shell keeps {len(rows)} of {len(distances)} "
            f"points, fewer than 3: the others lie within {POLE_GUARD:g} of "
            + ", ".join(f"sqrt(max(k_{n}, 0) + m^2) = {shells[n]:.6g}" for n in sorted(crowding))
        )

    lx = np.log([r["offshellness"] for r in rows])
    ly = np.log([r["block_norm"] for r in rows])
    gamma = -float(np.polyfit(lx, ly, 1)[0])
    return {"rows": rows, "exponent": gamma}
