"""Grid realizations of the differential operators.

Every operator here is a band on a uniform grid with Dirichlet boundaries,
held in LAPACK general band storage (Anderson et al., LAPACK Users'
Guide, 3rd ed., 1999); no operator is ever stored dense.  A band keeps the
entry (i, j) at ab[u + i - j, j] for half-bandwidth u on both sides, so the
upper u + 1 rows of a symmetric band are its upper storage, as xPBTRF
takes it.  Every product with a band goes through ``band_product``.  Conventions shared by
the rest of the package:

* spinor slots: a grid spinor has two slots s = 0, 1 of N values each, and
  a spinor 2x2 matrix c acting with a grid N x N matrix D is the Kronecker
  product c (x) D, whose block (s, t) is c[s, t] D.  The levels and X are
  held per slot.
* quadrature: uniform-weight sum h*sum(...), equal to the trapezoid rule up
  to boundary terms that vanish for Dirichlet-decayed functions.
* stencils: fourth-order central differences.  The first-derivative matrix
  is exactly antisymmetric and the second-derivative matrix exactly
  symmetric, so discrete adjoints are exact transposes.

The key factorized structure: with M(x) = p_y - e W(x), the spatial Dirac
operator ("bold" gamma.Pi, the one entering H = gamma^0 (gamma.Pi + m)),
X = gamma^1 (x) (-i D1) + gamma^2 (x) M, is the supersymmetric ladder pair
(Cooper, Khare & Sukhatme, Phys. Rep. 251 (1995) 267)

    A  = D1 + M,        -A^T = D1 - M,

    X = [[0, A], [-A^T, 0]]          (first representation)
      = [[0, -A^T], [A, 0]]          (second representation)

A sits on the row of the slot that ``channel_slots`` gives sigma = +1, so
slot s of X is D1 + sigma M for the channel sigma of that slot.  X is
exactly real antisymmetric for both representations, and Pi-tilde^2 =
(gamma^0 X)^2 = -X^2 is block diagonal with the partner Hamiltonians
-d^2/dx^2 + V_sigma on the two spinor slots.  X couples the two slots only
and is kept as its two cross-slot bands: X[s] is block (s, 1 - s).
"""

from __future__ import annotations

import numpy as np

from .clifford import GammaRep
from .field_profiles import FieldProfile, channel_potentials

__all__ = [
    "band_product",
    "first_derivative",
    "channel_hamiltonian",
    "gamma_dot_pi_spatial",
    "channel_slots",
    "GridOperators",
]

_BLOCK = 1 << 15  # entries of x per block of rows in band_product (256 KiB)

# ----------------------------------------------------------------------
# bands and finite-difference stencils
# ----------------------------------------------------------------------


def band_product(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for the square band matrix A held in ``ab``; x is (n,) or (n, c).

    ab is A's general band storage, 2u + 1 rows.  Each entry of the result is
    0 plus the terms of its row in ascending column order: the order in which
    a compressed-sparse-row product sums a row's stored entries, so that the
    two agree bit for bit.  The result and each block's term take x's memory
    order, so no x (a level block, or a view of one) is copied.  The rows go in
    blocks of about _BLOCK entries, so that a block's terms stay in cache,
    and a diagonal whose entries are all equal (a stencil coefficient)
    scales a block as one number.
    """
    n = ab.shape[1]
    u = ab.shape[0] // 2
    y = np.zeros_like(x, dtype=float)
    terms = []
    for d in range(-u, u + 1):  # column offset j - i
        lo, hi = max(-d, 0), n - max(d, 0)  # the rows this diagonal reaches
        a = ab[u - d, lo + d:hi + d]
        constant = x.ndim == 2 and a.size > 0 and a.min() == a.max()
        if constant:
            a = a[0]
        elif x.ndim == 2:
            a = a[:, None]
        terms.append((d, lo, hi, a, constant))
    rows = max(1, _BLOCK // x[0].size)
    term = np.empty_like(x, dtype=float, shape=(min(rows, n),) + x.shape[1:])
    for r0 in range(0, n, rows):
        for d, lo, hi, a, constant in terms:
            i0, i1 = max(lo, r0), min(hi, r0 + rows)
            t = term[:max(i1 - i0, 0)]
            np.multiply(a if constant else a[i0 - lo:i1 - lo], x[i0 + d:i1 + d], out=t)
            y[i0:i1] += t
    return y


def first_derivative(N: int, h: float) -> np.ndarray:
    """Fourth-order central first derivative, exactly antisymmetric (Dirichlet).

    General band storage, (5, N): the offset j - i = d diagonal is row 2 - d.
    """
    c1 = 8.0 / (12.0 * h)
    c2 = -1.0 / (12.0 * h)
    ab = np.zeros((5, N))
    for d, c in ((-2, -c2), (-1, -c1), (1, c1), (2, c2)):
        ab[2 - d, max(d, 0):N + min(d, 0)] = c
    return ab


def channel_hamiltonian(V: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order H = -d^2/dx^2 + diag(V), exactly symmetric (Dirichlet).

    General band storage, (5, N): the offset j - i = d diagonal is row
    2 - d.  Its top three rows, superdiagonals 2 and 1 and the diagonal,
    are its upper storage, as xPBTRF takes it.
    """
    c0 = 30.0 / (12.0 * h * h)
    c1 = -16.0 / (12.0 * h * h)
    c2 = 1.0 / (12.0 * h * h)
    ab = np.zeros((5, V.size))
    ab[0, 2:], ab[1, 1:], ab[2], ab[3, :-1], ab[4, :-2] = c2, c1, c0 + V, c1, c2
    return ab


# ----------------------------------------------------------------------
# gauge-covariant building blocks
# ----------------------------------------------------------------------


def channel_slots(rep: GammaRep) -> dict:
    """Map spin channel sigma -> spinor slot index for this representation.

    Pi-tilde^2 = -X^2 is diag(H_+, H_-) in the first representation and
    diag(H_-, H_+) in the second, so sigma=+1 lives on slot 0 ("first")
    or slot 1 ("second").
    """
    if rep.variant == "first":
        return {+1: 0, -1: 1}
    return {+1: 1, -1: 0}


def gamma_dot_pi_spatial(rep: GammaRep, D1: np.ndarray, M: np.ndarray) -> tuple:
    """X as its two cross-slot bands (X[0], X[1]): the ladder pair A and -A^T.

    X[s] is block (s, 1 - s): D1 with sigma M on its diagonal (D1 has none)
    for the channel sigma that ``channel_slots`` puts on slot s.  X is real
    antisymmetric: X[1] = -X[0]^T.
    """
    X = (D1.copy(), D1.copy())
    for sigma, s in channel_slots(rep).items():
        X[s][2] = sigma * M
    return X


# ----------------------------------------------------------------------
# one-stop bundle
# ----------------------------------------------------------------------


class GridOperators:
    """The field on the grid for one (rep, profile, p_y, e, grid), from one channel_potentials call.

    Attributes: h, the grid step; M, the array of length N of M(x); V[sigma]
    and H[sigma], sigma = +1, -1, each channel's potential and Hamiltonian
    band (``channel_hamiltonian``): the channel solves read H, which is
    Pi-tilde^2 on the channel's spinor slot; X, the spatial Dirac operator as
    its two cross-slot bands (X[0], X[1]), each (5, N) (``gamma_dot_pi_spatial``).
    """

    def __init__(self, rep: GammaRep, profile: FieldProfile, p_y: float, e: float, grid):
        self.rep = rep
        self.p_y = float(p_y)
        self.grid = grid
        self.h = grid.h
        self.M, *V = channel_potentials(profile, p_y, e, grid.x)
        self.V = dict(zip((+1, -1), V))
        self.H = {sigma: channel_hamiltonian(v, self.h) for sigma, v in self.V.items()}
        self.X = gamma_dot_pi_spatial(rep, first_derivative(self.M.size, self.h), self.M)
