"""The sparse, low-rank and Lanczos paths against dense references.

The library never forms a dense N x N or 2N x 2N matrix; the dense forms of
U, G0 X, gamma.Pi - m and the channel Hamiltonians live here only, as
references: for the FW and propagator paths on the N=640 bundle, for the
shift-invert Lanczos channel solve (against numpy.linalg.eigh) at N=256 and
N=384 over the profile kinds, the sign of eB and p_y.
"""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.linalg import ArpackNoConvergence

from ritusfw import cli, spectral_grid
from ritusfw.errors import DiscretizationError
from ritusfw.field_profiles import (exponential_profile,
                                    susy_partner_potentials, tabulated_profile,
                                    uniform_profile)
from ritusfw.foldy_wouthuysen import (projector_commutation_residual,
                                      restricted_hamiltonian,
                                      unitarity_residual)
from ritusfw.operators import channel_hamiltonian
from ritusfw.propagator import project_propagator
from ritusfw.spectral_grid import (PHASE_THRESHOLD, ZERO_CLAMP, GridConfig,
                                   build_grid, solve_channel)

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
    res = project_propagator(levels, P0, MASS, ops)
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
    bad = dataclasses.replace(fw, W=W)

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
    uni.levels  # grid and both spectra are built before tracing, whatever the test order
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        # a fresh problem on uni's grid and spectra builds its operators,
        # every level and U inside the traced region
        prob = uni.other_rep()
        fw = prob.fw
        unitarity_residual(fw)
        projector_commutation_residual(fw)
        restricted_hamiltonian(fw)
        project_propagator(prob.levels, P0, MASS, prob.ops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_dense, f"peak {peak / 2**20:.1f} MiB >= one dense 2N x 2N array"


# ----------------------------------------------------------------------
# channel solve: shift-invert Lanczos against dense eigh
# ----------------------------------------------------------------------

N_LEVELS = 7
TABLE_X = np.linspace(-8.0, 8.0, 161)
PROFILES = {
    "uniform+": uniform_profile(1.0),
    "uniform-": uniform_profile(-1.0),
    "exponential+": exponential_profile(1.0, 0.1),
    "exponential-": exponential_profile(-1.0, 0.1),
    "tabulated": tabulated_profile(TABLE_X, TABLE_X + 0.05 * np.sin(TABLE_X)),
}


def dense_channel(profile, p_y, sigma, grid):
    """Lowest eigenpairs of the dense channel Hamiltonian, with the solver's clamp.

    Each vector is phase-fixed by the solver's rule, applied here on its own:
    positive at its first sample from the left above PHASE_THRESHOLD of its peak.
    """
    V = susy_partner_potentials(profile, p_y, 1.0)[0 if sigma > 0 else 1](grid.x)
    vals, vecs = np.linalg.eigh(channel_hamiltonian(V, grid.h).toarray())
    vals = vals[:N_LEVELS]
    vals = np.where((vals > -ZERO_CLAMP) & (vals < 0.0), 0.0, vals)
    vecs = vecs[:, :N_LEVELS] / np.sqrt(grid.h)
    for n in range(N_LEVELS):
        mag = np.abs(vecs[:, n])
        first = np.flatnonzero(mag > PHASE_THRESHOLD * mag.max())[0]
        vecs[:, n] *= np.sign(vecs[first, n])
    return vals, vecs


@pytest.mark.parametrize("N", [256, 384])
@pytest.mark.parametrize("p_y", [-0.7, 0.0, 0.9])
@pytest.mark.parametrize("name", list(PROFILES))
def test_channel_solve_matches_dense_eigh(name, p_y, N):
    profile = PROFILES[name]
    grid = build_grid(profile, p_y, N_LEVELS - 1, GridConfig(n_points=N))
    for sigma in (+1, -1):
        spec = solve_channel(profile, p_y, 1.0, sigma, grid, N_LEVELS, tol_eig=1e-3)
        vals, vecs = dense_channel(profile, p_y, sigma, grid)
        assert np.abs(spec.eigenvalues - vals).max() < 1e-10
        assert np.abs(spec.eigenfunctions - vecs).max() < 1e-8
        if name == "uniform+" and p_y == 0.0:
            # a skipped odd level would show up as a wrong node count
            assert [spec.sign_changes(n) for n in range(N_LEVELS)] == list(range(N_LEVELS))


def no_convergence(*args, **kwargs):
    raise ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0), np.zeros((0, 0)))


def test_lanczos_no_convergence_is_a_discretization_error(uni, monkeypatch):
    monkeypatch.setattr(spectral_grid, "eigsh", no_convergence)
    with pytest.raises(DiscretizationError, match="did not converge"):
        solve_channel(uni.profile, 0.0, 1.0, +1, uni.grid, N_LEVELS)


def test_lanczos_no_convergence_under_all(tmp_path, monkeypatch):
    monkeypatch.setattr(spectral_grid, "eigsh", no_convergence)
    # main() sets the thread variables it finds unset; keep them test-local
    for var in ("RFW_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    out = tmp_path / "d"
    assert cli.main(["all", "--grid-n", "256", "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "fail"
    for section in report["sections"].values():
        assert section["checks"] == {}
        assert section["error"].startswith("DiscretizationError: shift-invert Lanczos")


def test_channel_solve_allocates_no_dense_matrix(uni):
    N = uni.grid.n_points
    one_dense = N * N * np.dtype(np.float64).itemsize
    for sigma in (+1, -1):
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            solve_channel(uni.profile, 0.0, 1.0, sigma, uni.grid, N_LEVELS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < one_dense, f"peak {peak / 2**20:.2f} MiB >= one dense N x N array"
