"""Grid operator structure: stencils, antisymmetry, block layout."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.linalg.lapack import dgbtrf

from ritusfw.clifford import make_rep
from ritusfw.field_profiles import channel_potentials, exponential_profile, uniform_profile
from ritusfw.operators import (BAND, band_product, channel_hamiltonian, channel_slots,
                               first_derivative, gamma_dot_pi_spatial)

from ritusfw.problem import Problem

from bands import dense, dense_E, dense_spinor, g0_diagonal


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
        # general band storage: the corners that lie outside the matrix are zero
        D2 = channel_hamiltonian(np.zeros(N), h)
        assert not D2[0, :2].any() and not D2[1, :1].any()
        assert not D2[3, -1:].any() and not D2[4, -2:].any()
        err1 = np.abs(band_product(D1, np.sin(x)) - np.cos(x))[4:-4].max()
        # the operator is -d^2/dx^2, so it maps sin to +sin
        err2 = np.abs(band_product(D2, np.sin(x)) - np.sin(x))[4:-4].max()
        assert err1 < 0.5 * h**4
        assert err2 < 0.5 * h**4


def test_kinetic_diagonal_values():
    prof = uniform_profile(2.0)
    x = np.linspace(-1, 1, 11)
    M = channel_potentials(prof, 0.3, 1.5, x)[0]
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
    assert len(X) == 2 and all(b.dtype == np.float64 and b.shape == (5, 64) for b in X)
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
        for sigma, H in prob.ops.H.items():
            s = channel_slots(prob.rep)[sigma]
            lhs[s * N:(s + 1) * N] = band_product(H, vec[s * N:(s + 1) * N])
        X = dense_spinor(prob.ops.X)
        rhs = -(X @ (X @ vec))
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
        ref = p0 * np.diag(g0_diagonal(ops)) - dense_spinor(ops.X) - m * np.eye(2 * N)
        assert np.array_equal(K, ref)
        # Fortran order: xGBTRF factors the band in place, with no copy
        lu, _, info = dgbtrf(ab, BAND, BAND, overwrite_ab=True)
        assert info == 0 and np.shares_memory(lu, ab)


def test_grid_operators_bundle_consistency(uni, uni_second):
    N = uni.grid.n_points
    # the off-diagonal blocks of X are the ladder A = D1 + diag(M) and -A^T:
    # [[0, A], [-A^T, 0]] in the first representation, [[0, -A^T], [A, 0]] in the second
    D1 = first_derivative(N, uni.grid.h)
    A = dense(D1) + np.diag(uni.ops.M)
    for ops, upper, lower in ((uni.ops, A, -A.T), (uni_second.ops, -A.T, A)):
        X = dense_spinor(ops.X)
        assert not X[:N, :N].any() and not X[N:, N:].any()
        assert np.array_equal(X[:N, N:], upper) and np.array_equal(X[N:, :N], lower)
    ops = uni.ops
    assert dense_spinor(ops.X).shape == (2 * N, 2 * N)
    rebuilt = gamma_dot_pi_spatial(uni.rep, D1, ops.M)
    assert np.array_equal(dense_spinor(ops.X), dense_spinor(rebuilt))


def test_channel_slots_place_the_ladder_in_X(uni, uni_second):
    # channel sigma's slot s holds X[s] = D1 + sigma M, bit for bit: the
    # ladder A on the sigma = +1 slot, -A^T = D1 - M on the sigma = -1 slot
    for prob in (uni, uni_second):
        ops, N, h = prob.ops, prob.grid.n_points, prob.grid.h
        assert len(ops.X) == 2 and all(b.shape == (5, N) for b in ops.X)
        for sigma, s in channel_slots(prob.rep).items():
            ref = first_derivative(N, h)
            ref[2] = sigma * ops.M
            assert same_bits(ops.X[s], ref)


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
    prob = Problem(profile, make_rep(variant), p_y=p_y, e=1.0, n_max=4,
                   n_points=512, tol_eig=1e-6)
    ops, N, h = prob.ops, prob.grid.n_points, prob.grid.h
    E = dense_E(prob.levels)  # Fortran order
    rng = np.random.default_rng(7)
    # E, its C-ordered copy, a column, a C-ordered block and the levels' two
    # slot blocks stacked (C order, as the checks apply operators to them):
    # each product comes back in its input's memory order, with the same bits
    vectors = (E, np.ascontiguousarray(E), E[:, 3], rng.standard_normal((2 * N, 5)),
               np.concatenate(prob.levels.F))
    D1, D1_csr = first_derivative(N, h), csr_first_derivative(N, h)
    for v in vectors:
        assert same_bits_and_order(band_product(D1, v[:N]), D1_csr @ v[:N], v)
    # the run's M, and the same M with an exact zero, which CSR stores as an entry
    M0 = ops.M.copy()
    M0[N // 3] = 0.0
    for M, X in ((ops.M, ops.X), (M0, gamma_dot_pi_spatial(prob.rep, D1, M0))):
        ref = csr_x(prob.rep, D1_csr, M)
        for v in vectors:
            # slot s of X v is X[s] on slot 1 - s
            for s in (0, 1):
                assert same_bits_and_order(band_product(X[s], v[(1 - s) * N:(2 - s) * N]),
                                           (ref @ v)[s * N:(s + 1) * N], v)
    for sigma, V in zip((+1, -1), channel_potentials(profile, p_y, 1.0, prob.grid.x)[1:]):
        H = csr_channel_hamiltonian(V, h)
        for v in vectors:
            for rows in (slice(0, N), slice(N, 2 * N)):
                assert same_bits_and_order(band_product(ops.H[sigma], v[rows]), H @ v[rows], v)


def same_bits_and_order(result, ref, v):
    """result has ref's bits and v's memory order (a column counts as both)."""
    return (same_bits(result, ref) and result.flags.f_contiguous == v.flags.f_contiguous
            and result.flags.c_contiguous == (v.ndim == 1 or v.flags.c_contiguous))


def test_band_product_on_the_levels_makes_no_copy():
    # X on a slot block at n_max = 64 on N = 16384: the result is the one
    # grid-sized array
    prob = Problem(uniform_profile(1.0), make_rep("first"), p_y=0.0, e=1.0,
                   n_max=64, n_points=16384, tol_eig=1e-6)
    levels = prob.levels
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        XF = levels.cross(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert XF.flags.c_contiguous and XF.shape == levels.F[0].shape
    assert peak < 1.25 * XF.nbytes, (peak, XF.nbytes)
