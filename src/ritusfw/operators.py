"""Grid realizations of the differential operators.

Everything here is a scipy.sparse matrix on a uniform grid with Dirichlet
boundaries, or a LAPACK band; no operator is ever stored dense.  Conventions
shared by the rest of the package:

* spinor (x) grid ordering: a grid spinor v has layout
  ``v = [upper component (N values), lower component (N values)]``,
  i.e. a spinor 2x2 matrix c acting with a grid N x N matrix D is the
  Kronecker product c (x) D, whose block (s, t) is c[s, t] D.  The one
  exception is the band of gamma.Pi - m (``GridOperators.dirac_band``),
  which interleaves the components, q = 2i + s for grid point i and spinor
  slot s, so that the two slots of one point are neighbours and the matrix
  has half-bandwidth ``BAND`` = 5.  ``GridOperators.dirac_solver`` factors
  it with LAPACK's banded LU (xGBTRF/xGBTRS; Anderson et al., LAPACK
  Users' Guide, 3rd ed., 1999) and takes and returns block-ordered spinors.
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
which channel depends on the representation).  X is assembled entry by
entry: each nonzero coefficient places the stencil entries of D1, or the
values of M, in its block, one COO triplet list converted to CSR once.
gamma^0 = sigma_3 in both representations, so gamma^0 (x) 1_N is kept as
its +/-1 diagonal g0diag.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .clifford import GammaRep
from .errors import ConditioningError
from .field_profiles import FieldProfile, evaluate_potential

__all__ = [
    "first_derivative",
    "channel_hamiltonian",
    "kinetic_diagonal",
    "gamma_dot_pi_spatial",
    "channel_slots",
    "BAND",
    "GridOperators",
]

BAND = 5  # half-bandwidth of gamma.Pi - m in the interleaved spinor order

# ----------------------------------------------------------------------
# finite-difference stencils
# ----------------------------------------------------------------------


def first_derivative(N: int, h: float) -> sp.csr_matrix:
    """Fourth-order central first derivative, exactly antisymmetric (Dirichlet)."""
    c1 = 8.0 / (12.0 * h)
    c2 = -1.0 / (12.0 * h)
    return sp.diags([-c2, -c1, c1, c2], [-2, -1, 1, 2], shape=(N, N), format="csr")


def channel_hamiltonian(V: np.ndarray, h: float) -> sp.csr_matrix:
    """Fourth-order H = -d^2/dx^2 + diag(V), exactly symmetric (Dirichlet)."""
    c0 = 30.0 / (12.0 * h * h)
    c1 = -16.0 / (12.0 * h * h)
    c2 = 1.0 / (12.0 * h * h)
    return sp.diags([c2, c1, c0 + V, c1, c2], [-2, -1, 0, 1, 2],
                    shape=(V.size, V.size), format="csr")


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


def gamma_dot_pi_spatial(rep: GammaRep, D1, M: np.ndarray) -> sp.csr_matrix:
    """X = c1 (x) D1 + c2 (x) diag(M); real antisymmetric.

    Block (s, t) holds c1[s, t] D1 + c2[s, t] diag(M).  D1 has no diagonal,
    so the two terms never share an entry and the triplets need no summing.
    """
    c1, c2 = _spinor_coefficients(rep)
    D1 = sp.coo_matrix(D1)
    N = M.size
    diag = np.arange(N)
    rows, cols, vals = [], [], []
    for c, r, k, v in ((c1, D1.row, D1.col, D1.data), (c2, diag, diag, M)):
        for s, t in zip(*np.nonzero(c)):
            rows.append(s * N + r)
            cols.append(t * N + k)
            vals.append(c[s, t] * v)
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(2 * N, 2 * N))


# ----------------------------------------------------------------------
# one-stop bundle
# ----------------------------------------------------------------------


class GridOperators:
    """Precomputed grid operators for one (rep, profile, p_y, e, grid) combo.

    Attributes: x, h and M, arrays of length N; D1 and X, real scipy.sparse
    CSR matrices; g0diag, the +/-1 diagonal of gamma^0 (x) 1_N (length
    2N).  Pi-tilde^2 lives on the spectra: on each spinor slot it is the
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

    @cached_property
    def _minus_x_rows(self) -> tuple:
        """(rows, values): the rows of the ``dirac_band`` storage that hold -X, and their values.

        Rows and columns are in the interleaved order q = 2i + s, so block
        row rho = s N + i maps to q = 2 (rho mod N) + rho div N.  The entries
        are read off X's sparse indices (X has no diagonal and no duplicate
        entries).  Built on the first solve and kept: only the diagonal
        depends on p0 and m, and X couples the two slots only, so just the
        odd offsets q - r = +/-1, +/-3, +/-5 are kept.
        """
        N = self.x.size
        X = self.X.tocoo()
        q, r = 2 * (X.row % N) + X.row // N, 2 * (X.col % N) + X.col // N
        ab = np.zeros((4 * BAND + 1, 2 * N))
        ab[2 * BAND + q - r, r] = -X.data
        rows = np.flatnonzero(ab.any(axis=1))
        return rows, ab[rows]

    def dirac_band(self, p0: float, m: float) -> np.ndarray:
        """gamma.Pi - m = p0 G0 - X - m at energy p0, in LAPACK general band storage.

        The kept -X rows (``_minus_x_rows``) with p0 g0diag - m on the
        diagonal, in the interleaved order q = 2i + s.  D1 reaches
        j - i = +/-2, so the half-bandwidth is BAND = 5 on both sides.  Entry
        (q, r) sits at ab[2*BAND + q - r, r]; the BAND rows on top are the
        room xGBTRF needs for fill-in.  Shape (4*BAND + 1, 2N), in Fortran
        order, so that xGBTRF factors it in place.
        """
        rows, values = self._minus_x_rows
        ab = np.zeros((4 * BAND + 1, 2 * self.x.size), order="F")
        ab[rows] = values
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
