"""Grid operator structure: stencils, antisymmetry, block layout."""

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.linalg.lapack import dgbtrf

from ritusfw.clifford import make_rep
from ritusfw.field_profiles import exponential_profile, susy_partner_potentials, uniform_profile
from ritusfw.operators import (BAND, band_product, channel_hamiltonian, channel_slots,
                               first_derivative, gamma_dot_pi_spatial, kinetic_diagonal)

from ritusfw.problem import Problem
from ritusfw.spectral_grid import GridConfig

from bands import dense, dense_spinor


def test_first_derivative_exactly_antisymmetric():
    D1 = dense(first_derivative(200, 0.05))
    assert np.array_equal(D1, -D1.T)


def test_stencil_orders_on_smooth_function():
    # D1 sin -> cos and D2 sin -> -sin at 4th order in h
    for N in (200, 400):
        h = 2.0 / N
        x = np.arange(N) * h
        D1 = first_derivative(N, h)
        # the channel Hamiltonian at V = 0, as the channel solve builds it
        # upper band storage: the corner that lies outside the matrix is zero
        D2 = channel_hamiltonian(np.zeros(N), h)
        assert not D2[0, :2].any() and not D2[1, :1].any()
        err1 = np.abs(band_product(D1, np.sin(x)) - np.cos(x))[4:-4].max()
        # the operator is -d^2/dx^2, so it maps sin to +sin
        err2 = np.abs(band_product(D2, np.sin(x), symmetric=True) - np.sin(x))[4:-4].max()
        assert err1 < 0.5 * h**4
        assert err2 < 0.5 * h**4


def test_kinetic_diagonal_values():
    prof = uniform_profile(2.0)
    x = np.linspace(-1, 1, 11)
    M = kinetic_diagonal(prof, 0.3, 1.5, x)
    assert_allclose(M, 0.3 - 1.5 * 2.0 * x, rtol=1e-14)


@pytest.mark.parametrize("variant,plus_slot", [("first", 0), ("second", 1)])
def test_channel_slots(variant, plus_slot):
    slots = channel_slots(make_rep(variant))
    assert slots[+1] == plus_slot
    assert slots[-1] == 1 - plus_slot


@pytest.mark.parametrize("variant", ["first", "second"])
def test_spatial_contraction_real_antisymmetric(variant, uni):
    rep = make_rep(variant)
    D1 = first_derivative(64, 0.1)
    M = np.linspace(-2, 2, 64)
    X = gamma_dot_pi_spatial(rep, D1, M)
    assert all(b.dtype == np.float64 for row in X.blocks for b in row if b is not None)
    X = dense_spinor(X)
    assert np.array_equal(X, -X.T)


def test_pi_tilde_squared_matches_minus_X_squared_in_action(uni, uni_second):
    # Pi-tilde^2 is each channel's Hamiltonian on the slot channel_slots
    # gives it.  -X^2 uses the squared first-derivative stencil, the channel
    # Hamiltonian the direct second-derivative one; they agree on smooth
    # vectors at truncation level
    N = uni.grid.n_points
    phi = uni.spec_plus.eigenfunctions[:, 0]
    vec = np.concatenate([phi, 0.5 * phi])
    for prob in (uni, uni_second):
        lhs = np.empty_like(vec)
        for spec in (prob.spec_plus, prob.spec_minus):
            s = channel_slots(prob.rep)[spec.sigma]
            lhs[s * N:(s + 1) * N] = band_product(spec.hamiltonian, vec[s * N:(s + 1) * N],
                                                  symmetric=True)
        rhs = -(prob.ops.X @ (prob.ops.X @ vec))
        scale = np.abs(lhs).max()
        assert np.abs(lhs - rhs).max() < 1e-5 * max(scale, 1.0)


def test_gamma_dot_pi_full_blocks(uni, uni_second):
    # the band of gamma.Pi - m, read back into the block spinor order, is
    # exactly the dense p0 G0 - X - m in both representations
    p0, m = 0.7, 1.3
    N = uni.grid.n_points
    for ops in (uni.ops, uni_second.ops):
        ab = ops.dirac_band(p0, m)
        assert ab.shape == (4 * BAND + 1, 2 * N)
        assert not ab[:BAND].any()
        K = np.zeros((2 * N, 2 * N))
        for r in range(2 * N):
            q = np.arange(max(0, r - BAND), min(2 * N, r + BAND + 1))
            K[q, r] = ab[2 * BAND + q - r, r]
        order = np.concatenate([np.arange(0, 2 * N, 2), np.arange(1, 2 * N, 2)])
        K = K[np.ix_(order, order)]
        ref = p0 * np.diag(ops.g0diag) - dense_spinor(ops.X) - m * np.eye(2 * N)
        assert np.array_equal(K, ref)
        # Fortran order: xGBTRF factors the band in place, with no copy
        lu, _, info = dgbtrf(ab, BAND, BAND, overwrite_ab=True)
        assert info == 0 and np.shares_memory(lu, ab)


def test_grid_operators_bundle_consistency(uni, uni_second):
    N = uni.grid.n_points
    # the off-diagonal blocks of X are the ladder A = D1 + diag(M) and -A^T:
    # [[0, A], [-A^T, 0]] in the first representation, [[0, -A^T], [A, 0]] in the second
    A = dense(uni.ops.D1) + np.diag(uni.ops.M)
    for ops, upper, lower in ((uni.ops, A, -A.T), (uni_second.ops, -A.T, A)):
        X = dense_spinor(ops.X)
        assert not X[:N, :N].any() and not X[N:, N:].any()
        assert np.array_equal(X[:N, N:], upper) and np.array_equal(X[N:, :N], lower)
    ops = uni.ops
    assert dense_spinor(ops.X).shape == (2 * N, 2 * N)
    rebuilt = gamma_dot_pi_spatial(uni.rep, ops.D1, ops.M)
    assert np.array_equal(dense_spinor(ops.X), dense_spinor(rebuilt))


# ----------------------------------------------------------------------
# band products against compressed-sparse-row products, bit for bit
# ----------------------------------------------------------------------


def csr_first_derivative(N, h):
    c1, c2 = 8.0 / (12.0 * h), -1.0 / (12.0 * h)
    return sp.diags([-c2, -c1, c1, c2], [-2, -1, 1, 2], shape=(N, N), format="csr")


def csr_channel_hamiltonian(V, h):
    c0, c1, c2 = 30.0 / (12.0 * h * h), -16.0 / (12.0 * h * h), 1.0 / (12.0 * h * h)
    return sp.diags([c2, c1, c0 + V, c1, c2], [-2, -1, 0, 1, 2], shape=(V.size, V.size),
                    format="csr")


def csr_x(rep, D1, M):
    """c1 (x) D1 + c2 (x) diag(M) from COO triplets, with c1 = -i gamma^1 and c2 = gamma^2."""
    c1, c2 = (-1j * rep.gamma[1]).real, rep.gamma[2].real
    D1, N = D1.tocoo(), M.size
    diag = np.arange(N)
    rows, cols, vals = [], [], []
    for c, r, k, v in ((c1, D1.row, D1.col, D1.data), (c2, diag, diag, M)):
        for s, t in zip(*np.nonzero(c)):
            rows.append(s * N + r)
            cols.append(t * N + k)
            vals.append(c[s, t] * v)
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(2 * N, 2 * N))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                                 np.ascontiguousarray(b).view(np.uint64))


@pytest.mark.parametrize("p_y", [0.0, 0.7])
@pytest.mark.parametrize("kind", ["uniform", "exponential"])
@pytest.mark.parametrize("variant", ["first", "second"])
def test_band_products_equal_csr_products_bit_for_bit(variant, kind, p_y):
    profile = uniform_profile(1.0) if kind == "uniform" else exponential_profile(1.0, 0.1)
    prob = Problem(profile, make_rep(variant), p_y=p_y, e=1.0, m=1.0, p0=0.3, n_max=4,
                   grid_config=GridConfig(n_points=512), tol_eig=1e-6)
    ops, N, h = prob.ops, prob.grid.n_points, prob.grid.h
    E = prob.levels.E  # Fortran order, as every check applies its operator to it
    rng = np.random.default_rng(7)
    vectors = (E, E[:, 3], rng.standard_normal((2 * N, 5)))
    D1 = csr_first_derivative(N, h)
    for v in vectors:
        assert same_bits(band_product(ops.D1, v[:N]), D1 @ v[:N])
    # the run's M, and the same M with an exact zero, which CSR stores as an entry
    M0 = ops.M.copy()
    M0[N // 3] = 0.0
    for M, X in ((ops.M, ops.X), (M0, gamma_dot_pi_spatial(prob.rep, ops.D1, M0))):
        ref = csr_x(prob.rep, D1, M)
        for v in vectors:
            assert same_bits(X @ v, ref @ v)
    for spec, V in zip((prob.spec_plus, prob.spec_minus),
                       susy_partner_potentials(profile, p_y, 1.0)):
        H = csr_channel_hamiltonian(V(prob.grid.x), h)
        for v in vectors:
            for rows in (slice(0, N), slice(N, 2 * N)):
                assert same_bits(band_product(spec.hamiltonian, v[rows], symmetric=True),
                                 H @ v[rows])
