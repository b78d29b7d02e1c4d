"""Grid realizations of the differential operators.

Every operator here is a band on a uniform grid with Dirichlet boundaries,
held in LAPACK band storage (Anderson et al., LAPACK Users' Guide, 3rd
ed., 1999); no operator is ever stored dense.  A general band keeps the
entry (i, j) at ab[u + i - j, j] for half-bandwidth u on both sides; a
symmetric band keeps its upper u + 1 rows only, as xPBTRF takes it.  Every
product with a band goes through ``band_product``.  Conventions shared by
the rest of the package:

* spinor (x) grid ordering: a grid spinor v has layout
  ``v = [upper component (N values), lower component (N values)]``,
  i.e. a spinor 2x2 matrix c acting with a grid N x N matrix D is the
  Kronecker product c (x) D, whose block (s, t) is c[s, t] D.  The one
  exception is the band of gamma.Pi - m (``GridOperators.dirac_band``),
  which interleaves the components, q = 2i + s for grid point i and spinor
  slot s, so that the two slots of one point are neighbours and the matrix
  has half-bandwidth ``BAND`` = 5.  ``GridOperators.dirac_solver`` factors
  it with LAPACK's banded LU (xGBTRF/xGBTRS) and takes and returns
  block-ordered spinors.
* quadrature: uniform-weight sum h*sum(...), equal to the trapezoid rule up
  to boundary terms that vanish for Dirichlet-decayed functions.
* stencils: fourth-order central differences.  The first-derivative matrix
  is exactly antisymmetric and the second-derivative matrix exactly
  symmetric, so discrete adjoints are exact transposes.

The key factorized structure: with M(x) = p_y - e W(x) and the ladder
operators

    A  = D1 + M,        A^T = -D1 + M,

the spatial Dirac operator ("bold" gamma.Pi, the one entering
H = gamma^0 (gamma.Pi + m)) is

    X = gamma^1 (x) (-i D1) + gamma^2 (x) M = c1 (x) D1 + c2 (x) M
      = [[0, A], [-A^T, 0]]          (first representation)
      = [[0, -A^T], [A, 0]]          (second representation)

with the real 2x2 coefficients c1 = -i gamma^1 and c2 = gamma^2, so X is
exactly real antisymmetric for both representations, and
Pi-tilde^2 = (gamma^0 X)^2 = -X^2 is block diagonal with the partner
Hamiltonians -d^2/dx^2 + V_sigma on the two spinor slots (which slot hosts
which channel depends on the representation).  X is kept as its blocks
(``SpinorBand``): block (s, t) is the band c1[s, t] D1 with c2[s, t] M on
its diagonal.  gamma^0 = sigma_3 in both representations, so
gamma^0 (x) 1_N is kept as its +/-1 diagonal g0diag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .clifford import GammaRep
from .errors import ConditioningError
from .field_profiles import FieldProfile, evaluate_potential

__all__ = [
    "band_product",
    "first_derivative",
    "channel_hamiltonian",
    "kinetic_diagonal",
    "SpinorBand",
    "gamma_dot_pi_spatial",
    "channel_slots",
    "BAND",
    "GridOperators",
]

BAND = 5  # half-bandwidth of gamma.Pi - m in the interleaved spinor order
_BLOCK = 1 << 15  # entries of x per block of rows in band_product (256 KiB)

# ----------------------------------------------------------------------
# bands and finite-difference stencils
# ----------------------------------------------------------------------


def band_product(ab: np.ndarray, x: np.ndarray, out: np.ndarray = None,
                 symmetric: bool = False) -> np.ndarray:
    """A @ x for the square band matrix A held in ``ab``; x is (n,) or (n, c).

    ab is A's general band storage, 2u + 1 rows, or with ``symmetric`` its
    upper band storage, u + 1 rows, which serves the lower diagonals too.
    Each entry of the result is 0, or its value in ``out``, plus the terms
    of its row in ascending column order: the order in which a
    compressed-sparse-row product sums a row's stored entries, so that the
    two agree bit for bit.  The result is C-ordered.  The rows go in blocks
    of about _BLOCK entries, so that a block's terms stay in cache, and a
    diagonal whose entries are all equal (a stencil coefficient) scales a
    block as one number.
    """
    n = ab.shape[1]
    u = ab.shape[0] - 1 if symmetric else ab.shape[0] // 2
    x = np.ascontiguousarray(x)
    y = np.zeros(x.shape) if out is None else out
    terms = []
    for d in range(-u, u + 1):  # column offset j - i
        lo, hi = max(-d, 0), n - max(d, 0)  # the rows this diagonal reaches
        if symmetric:
            a = ab[u - abs(d), lo + max(d, 0):hi + max(d, 0)]
        else:
            a = ab[u - d, lo + d:hi + d]
        constant = x.ndim == 2 and a.size > 0 and a.min() == a.max()
        if constant:
            a = a[0]
        elif x.ndim == 2:
            a = a[:, None]
        terms.append((d, lo, hi, a, constant))
    rows = max(1, _BLOCK // x[0].size)
    term = np.empty((min(rows, n),) + x.shape[1:])
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

    Upper band storage, (3, N), as xPBTRF takes it: superdiagonals 2 and 1,
    then the diagonal.
    """
    c0 = 30.0 / (12.0 * h * h)
    c1 = -16.0 / (12.0 * h * h)
    c2 = 1.0 / (12.0 * h * h)
    ab = np.zeros((3, V.size))
    ab[0, 2:], ab[1, 1:], ab[2] = c2, c1, c0 + V
    return ab


# ----------------------------------------------------------------------
# gauge-covariant building blocks
# ----------------------------------------------------------------------


def kinetic_diagonal(profile: FieldProfile, p_y: float, e: float, x: np.ndarray) -> np.ndarray:
    """M(x) = p_y - e W(x), the y-momentum shifted by the gauge function."""
    W, _ = evaluate_potential(profile, x)
    return p_y - e * W


def _gamma0_diagonal(rep: GammaRep, N: int) -> np.ndarray:
    """The +/-1 diagonal of gamma^0 (x) 1_N; gamma^0 must be real diagonal."""
    g0 = rep.gamma[0]
    if np.any(g0 != np.diag(np.diag(g0)).real):
        raise AssertionError("gamma^0 expected real diagonal")
    return np.repeat(np.diag(g0).real, N)


def channel_slots(rep: GammaRep) -> dict:
    """Map spin channel sigma -> spinor slot index for this representation.

    Pi-tilde^2 = -X^2 is diag(H_+, H_-) in the first representation and
    diag(H_-, H_+) in the second, so sigma=+1 lives on slot 0 ("first")
    or slot 1 ("second").
    """
    if rep.variant == "first":
        return {+1: 0, -1: 1}
    return {+1: 1, -1: 0}


def _spinor_coefficients(rep: GammaRep) -> tuple:
    """The real 2x2 coefficients (c1, c2) = (-i gamma^1, gamma^2) of D1 and M in X."""
    c1, c2 = -1j * rep.gamma[1], rep.gamma[2]
    if np.any(c1.imag) or np.any(c2.imag):
        raise AssertionError("gamma^1 expected imaginary and gamma^2 real")
    return c1.real, c2.real


@dataclass(frozen=True, eq=False)
class SpinorBand:
    """A 2N x 2N operator in the block spinor order, as its 2 x 2 blocks.

    blocks[s][t] is block (s, t) in general band storage, or None for a zero
    block.  ``X @ v`` sums each row's terms in ascending column order.
    """

    blocks: tuple

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        N = v.shape[0] // 2
        out = np.zeros(v.shape)
        for s, row in enumerate(self.blocks):
            for t, ab in enumerate(row):
                if ab is not None:
                    band_product(ab, v[t * N:(t + 1) * N], out=out[s * N:(s + 1) * N])
        return out


def gamma_dot_pi_spatial(rep: GammaRep, D1: np.ndarray, M: np.ndarray) -> SpinorBand:
    """X = c1 (x) D1 + c2 (x) diag(M); real antisymmetric.

    Block (s, t) is the band c1[s, t] D1 with c2[s, t] M on its diagonal
    (D1 has none), for each (s, t) where c1 or c2 is nonzero.
    """
    c1, c2 = _spinor_coefficients(rep)
    blocks = [[None, None], [None, None]]
    for s, t in zip(*np.nonzero((c1 != 0) | (c2 != 0))):
        ab = c1[s, t] * D1
        ab[2] = c2[s, t] * M
        blocks[s][t] = ab
    return SpinorBand(tuple(map(tuple, blocks)))


# ----------------------------------------------------------------------
# one-stop bundle
# ----------------------------------------------------------------------


class GridOperators:
    """Precomputed grid operators for one (rep, profile, p_y, e, grid) combo.

    Attributes: x, h and M, arrays of length N; D1, the (5, N) general band
    of the first derivative; X, the ``SpinorBand`` of the spatial Dirac
    operator; g0diag, the +/-1 diagonal of gamma^0 (x) 1_N (length 2N).
    Pi-tilde^2 lives on the spectra: on each spinor slot it is the
    channel's ScalarSpectrum.hamiltonian.
    """

    def __init__(self, rep: GammaRep, profile: FieldProfile, p_y: float, e: float, grid):
        self.rep = rep
        self.p_y = float(p_y)
        self.e = float(e)
        self.grid = grid
        x = grid.x
        h = grid.h
        self.x, self.h = x, h
        self.D1 = first_derivative(x.size, h)
        self.M = kinetic_diagonal(profile, p_y, e, x)
        self.X = gamma_dot_pi_spatial(rep, self.D1, self.M)
        self.g0diag = _gamma0_diagonal(rep, x.size)

    def dirac_band(self, p0: float, m: float) -> np.ndarray:
        """gamma.Pi - m = p0 G0 - X - m at energy p0, in LAPACK general band storage.

        The interleaved order q = 2i + s takes entry (i, i + d) of X's block
        (s, t) to (q, r) = (2i + s, 2(i + d) + t), so -X fills the rows
        2*BAND - 2d + s - t; X couples the two slots only, so these are the
        odd offsets q - r = +/-1, +/-3, +/-5.  p0 g0diag - m is the
        diagonal.  D1 reaches d = +/-2, so the half-bandwidth is BAND = 5 on
        both sides.  Entry (q, r) sits at ab[2*BAND + q - r, r]; the BAND
        rows on top are the room xGBTRF needs for fill-in.  Shape
        (4*BAND + 1, 2N), in Fortran order, so that xGBTRF factors it in
        place.
        """
        N = self.x.size
        ab = np.zeros((4 * BAND + 1, 2 * N), order="F")
        for s, row in enumerate(self.X.blocks):
            for t, xb in enumerate(row):
                if xb is None:
                    continue
                for d in range(-2, 3):
                    lo, hi = max(d, 0), N + min(d, 0)
                    ab[2 * BAND - 2 * d + s - t, 2 * lo + t:2 * hi + t:2] = -xb[2 - d, lo:hi]
        ab[2 * BAND] = (p0 * self.g0diag - m).reshape(2, -1).T.ravel()
        return ab

    def dirac_solver(self, p0: float, m: float):
        """Solves with gamma.Pi - m at p0: one banded LU with partial pivoting.

        The LU of ``dirac_band`` is computed here, once (LAPACK xGBTRF).  The
        returned function maps (2N, c) right-hand sides in the block spinor
        order to the solutions in the same order (xGBTRS in the interleaved
        order).  An exactly zero pivot raises ConditioningError.
        """
        lu, piv, info = dgbtrf(self.dirac_band(p0, m), BAND, BAND, overwrite_ab=True)
        if info > 0:
            raise ConditioningError(
                f"gamma.Pi - m is singular at p0 = {p0:.6g}: pivot {info} of its banded LU is 0"
            )
        N = self.x.size

        def solve(E: np.ndarray) -> np.ndarray:
            rhs = np.empty(E.shape, order="F")
            rhs[0::2], rhs[1::2] = E[:N], E[N:]
            Z, _ = dgbtrs(lu, BAND, BAND, rhs, piv, overwrite_b=True)
            return np.concatenate([Z[0::2], Z[1::2]])

        return solve
