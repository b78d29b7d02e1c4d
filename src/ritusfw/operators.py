"""Grid realizations of the differential operators.

Everything here is a scipy.sparse matrix on a uniform grid with Dirichlet
boundaries; no operator is ever stored dense.  Conventions shared by the
rest of the package:

* spinor (x) grid ordering: a grid spinor v has layout
  ``v = [upper component (N values), lower component (N values)]``,
  i.e. operators are built with ``kron(spinor_2x2, grid_NxN)``.
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

    X = kron(gamma^1, -i D1) + kron(gamma^2, M)
      = [[0, A], [-A^T, 0]]          (first representation)
      = [[0, -A^T], [A, 0]]          (second representation)

which is exactly real antisymmetric for both representations, and
Pi-tilde^2 = (gamma^0 X)^2 = -X^2 is block diagonal with the partner
Hamiltonians -d^2/dx^2 + V_sigma on the two spinor slots (which slot hosts
which channel depends on the representation).  gamma^0 = sigma_3 in both
representations, so G0 is the diagonal matrix of its +/-1 entries.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .clifford import GammaRep
from .field_profiles import FieldProfile, evaluate_potential, susy_partner_potentials

__all__ = [
    "first_derivative",
    "channel_hamiltonian",
    "kinetic_diagonal",
    "gamma_dot_pi_spatial",
    "pi_tilde_squared",
    "dirac_hamiltonian",
    "gamma_dot_pi_full",
    "channel_slots",
    "GridOperators",
]

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


def _realify(mat) -> sp.csr_matrix:
    """Drop a numerically zero imaginary part (sanity-checked)."""
    mat = sp.csr_matrix(mat)
    if np.iscomplexobj(mat.data):
        imax = float(np.abs(mat.data.imag).max()) if mat.nnz else 0.0
        if imax > 1e-12:
            raise AssertionError(f"operator expected real, max imag {imax}")
        return mat.real
    return mat


def _gamma0_diagonal(rep: GammaRep, N: int) -> np.ndarray:
    """The +/-1 diagonal of kron(gamma^0, 1_N); gamma^0 must be real diagonal."""
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


def gamma_dot_pi_spatial(rep: GammaRep, D1, M: np.ndarray) -> sp.csr_matrix:
    """X = kron(gamma^1, -i D1) + kron(gamma^2, diag(M)); real antisymmetric."""
    X = sp.kron(rep.gamma[1], -1j * sp.csr_matrix(D1)) + sp.kron(rep.gamma[2], sp.diags(M))
    return _realify(X)


def pi_tilde_squared(
    rep: GammaRep, profile: FieldProfile, p_y: float, e: float, x: np.ndarray, h: float
) -> sp.csr_matrix:
    """Sparse (2N)x(2N) realization of Pi-tilde^2 = Pi^2 - e sigma_3-like W'.

    Built from the solved channel Hamiltonians blockdiag(-D2 + V_sigma) with
    the slot assignment of the representation.
    """
    Vp, Vm = susy_partner_potentials(profile, p_y, e)
    slots = channel_slots(rep)
    blocks = [None, None]
    for sigma, V in ((+1, Vp), (-1, Vm)):
        blocks[slots[sigma]] = channel_hamiltonian(V(x), h)
    return sp.block_diag(blocks, format="csr")


def dirac_hamiltonian(rep: GammaRep, X, m: float) -> sp.csr_matrix:
    """H_D = gamma^0 (gamma.Pi + m) on the grid; real symmetric."""
    N2 = X.shape[0]
    G0 = sp.diags(_gamma0_diagonal(rep, N2 // 2))
    return sp.csr_matrix(G0 @ (X + m * sp.identity(N2)))


def gamma_dot_pi_full(rep: GammaRep, X, p0: float) -> sp.csr_matrix:
    """Covariant contraction gamma.Pi = gamma^0 p0 - X at fixed energy p0."""
    N2 = X.shape[0]
    G0 = sp.diags(_gamma0_diagonal(rep, N2 // 2))
    return sp.csr_matrix(p0 * G0 - X)


# ----------------------------------------------------------------------
# one-stop bundle
# ----------------------------------------------------------------------


class GridOperators:
    """Precomputed grid operators for one (rep, profile, p_y, e, grid) combo.

    Attributes: x, h, w (quadrature weights) and M, arrays of length N;
    D1, A (=D1+M), X, G0 and PiTilde2, real scipy.sparse CSR matrices;
    g0diag, the +/-1 diagonal of G0 (length 2N).
    """

    def __init__(self, rep: GammaRep, profile: FieldProfile, p_y: float, e: float, grid):
        self.rep = rep
        self.profile = profile
        self.p_y = float(p_y)
        self.e = float(e)
        self.grid = grid
        x = grid.x
        h = grid.h
        self.x, self.h = x, h
        self.w = np.full(x.size, h)
        self.D1 = first_derivative(x.size, h)
        self.M = kinetic_diagonal(profile, p_y, e, x)
        self.A = self.D1 + sp.diags(self.M, format="csr")
        self.X = gamma_dot_pi_spatial(rep, self.D1, self.M)
        self.g0diag = _gamma0_diagonal(rep, x.size)
        self.G0 = sp.diags(self.g0diag, format="csr")
        self.PiTilde2 = pi_tilde_squared(rep, profile, p_y, e, x, h)

    def dirac_hamiltonian(self, m: float) -> sp.csr_matrix:
        return dirac_hamiltonian(self.rep, self.X, m)

    def gamma_dot_pi(self, p0: float) -> sp.csr_matrix:
        return gamma_dot_pi_full(self.rep, self.X, p0)
