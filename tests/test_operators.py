"""Grid operator structure: stencils, antisymmetry, block layout."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ritusfw.clifford import make_rep
from ritusfw.field_profiles import uniform_profile
from ritusfw.operators import (BAND, channel_hamiltonian, channel_slots, first_derivative,
                               gamma_dot_pi_spatial, kinetic_diagonal)


def test_first_derivative_exactly_antisymmetric():
    D1 = first_derivative(200, 0.05).toarray()
    assert np.array_equal(D1, -D1.T)


def test_stencil_orders_on_smooth_function():
    # D1 sin -> cos and D2 sin -> -sin at 4th order in h
    for N in (200, 400):
        h = 2.0 / N
        x = np.arange(N) * h
        D1 = first_derivative(N, h)
        # the channel Hamiltonian at V = 0, as the channel solve builds it
        D2 = channel_hamiltonian(np.zeros(N), h)
        assert (D2 != D2.T).nnz == 0
        err1 = np.abs((D1 @ np.sin(x)) - np.cos(x))[4:-4].max()
        # the operator is -d^2/dx^2, so it maps sin to +sin
        err2 = np.abs((D2 @ np.sin(x)) - np.sin(x))[4:-4].max()
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
    assert X.dtype == np.float64
    X = X.toarray()
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
            lhs[s * N:(s + 1) * N] = spec.hamiltonian @ vec[s * N:(s + 1) * N]
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
        dense = p0 * np.diag(ops.g0diag) - ops.X.toarray() - m * np.eye(2 * N)
        assert np.array_equal(K, dense)


def test_grid_operators_bundle_consistency(uni, uni_second):
    N = uni.grid.n_points
    # the off-diagonal blocks of X are the ladder A = D1 + diag(M) and -A^T:
    # [[0, A], [-A^T, 0]] in the first representation, [[0, -A^T], [A, 0]] in the second
    A = uni.ops.D1.toarray() + np.diag(uni.ops.M)
    for ops, upper, lower in ((uni.ops, A, -A.T), (uni_second.ops, -A.T, A)):
        X = ops.X.toarray()
        assert not X[:N, :N].any() and not X[N:, N:].any()
        assert np.array_equal(X[:N, N:], upper) and np.array_equal(X[N:, :N], lower)
    ops = uni.ops
    assert ops.X.shape == (2 * N, 2 * N)
    rebuilt = gamma_dot_pi_spatial(uni.rep, ops.D1, ops.M)
    assert np.array_equal(ops.X.toarray(), rebuilt.toarray())
