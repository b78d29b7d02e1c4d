"""The sparse and low-rank paths against dense references on the N=640 bundle.

The library never forms a 2N x 2N dense matrix; the dense forms of U, G0 X
and gamma.Pi - m live here only, as references.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from ritusfw.foldy_wouthuysen import (field_fw, low_rank_operator,
                                      projector_commutation_residual,
                                      restricted_hamiltonian,
                                      unitarity_residual)
from ritusfw.operators import GridOperators
from ritusfw.propagator import project_propagator

P0 = 0.3
MASS = 1.0


def dense_U(fw):
    B, W = fw.span, fw.W
    return np.eye(B.shape[0]) + B @ (W - np.eye(W.shape[0])) @ B.T


def dense_G0(ops):
    return np.kron(ops.rep.gamma[0].real, np.eye(ops.x.size))


def dense_unitarity(fw):
    U = dense_U(fw)
    return float(np.abs(U.T @ U - np.eye(U.shape[0])).max())


def dense_commutation(fw):
    U = dense_U(fw)
    worst = 0.0
    for sl in fw.cluster_slices:
        Bn = fw.span[:, sl]
        P = Bn @ Bn.T
        worst = max(worst, float(np.abs(U @ P - P @ U).max()))
    return worst


def test_fw_operator_matches_dense_low_rank_form(uni, rng):
    U = dense_U(uni.fw)
    V = rng.standard_normal((U.shape[0], 3))
    assert np.abs(uni.fw.U @ V - U @ V).max() < 1e-13
    assert np.abs(uni.fw.U @ V[:, 0] - U @ V[:, 0]).max() < 1e-13
    assert np.abs(uni.fw.U.H @ V - U.T @ V).max() < 1e-13


def test_restricted_hamiltonian_matches_dense(uni):
    fw, ops = uni.fw, uni.ops
    for m in (MASS, 4.0):
        H_r, grading = restricted_hamiltonian(fw, m)
        B = fw.span
        ref = B.T @ ((dense_G0(ops) @ ops.X.toarray()) @ B) + m * np.diag(grading)
        ref = 0.5 * (ref + ref.T)
        assert np.abs(H_r - ref).max() < 1e-12


def test_project_propagator_matches_dense_lu(uni):
    ops, levels = uni.ops, uni.levels
    res = project_propagator(uni.profile, uni.grid, levels, P0, MASS, uni.rep,
                             operators=ops)
    G0 = dense_G0(ops)
    K = P0 * G0 - ops.X.toarray() - MASS * np.eye(G0.shape[0])
    Z = lu_solve(lu_factor(K), np.hstack([lv.Ep for lv in levels]))
    g0 = uni.rep.gamma[0]
    h = uni.grid.h
    for i, lv in enumerate(levels):
        for j in range(len(levels)):
            ref = g0 @ (h * (lv.Ep.T @ (np.diag(G0)[:, None] * Z[:, 2 * j:2 * j + 2])))
            assert np.abs(res["blocks"][i, j] - ref).max() < 1e-12


@pytest.mark.parametrize("where", ["cluster", "cross"])
def test_residuals_not_below_dense_max_entry(uni, where):
    fw = uni.fw
    W = fw.W.copy()
    if where == "cluster":
        sl = fw.cluster_slices[3]
        W[sl, sl] += 1e-6 * np.array([[1.0, 0.5], [-0.25, 2.0]])
    else:
        a, b = fw.cluster_slices[2].start, fw.cluster_slices[4].start
        W[a, b] = 1e-6
    bad = dataclasses.replace(fw, W=W, U=low_rank_operator(fw.span, W))

    unit, unit_ref = unitarity_residual(bad), dense_unitarity(bad)
    assert unit_ref > 1e-10
    assert unit >= unit_ref

    comm, comm_ref = projector_commutation_residual(bad), dense_commutation(bad)
    if where == "cluster":
        # a perturbation inside one cluster block still commutes with P_n
        assert comm < 1e-12 and comm_ref < 1e-12
    else:
        assert comm_ref > 1e-10
        assert comm >= comm_ref


def test_no_dense_grid_matrix_allocated(uni):
    N2 = 2 * uni.grid.n_points
    one_dense = N2 * N2 * np.dtype(np.float64).itemsize
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        ops = GridOperators(uni.rep, uni.profile, 0.0, 1.0, uni.grid)
        fw = field_fw(uni.profile, 0.0, 1.0, MASS, uni.grid, uni.rep,
                      len(uni.levels) - 1,
                      spectra=(uni.spec_plus, uni.spec_minus), operators=ops)
        unitarity_residual(fw)
        projector_commutation_residual(fw)
        restricted_hamiltonian(fw)
        project_propagator(uni.profile, uni.grid, uni.levels, P0, MASS,
                           uni.rep, operators=ops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_dense, f"peak {peak / 2**20:.1f} MiB >= one dense 2N x 2N array"
