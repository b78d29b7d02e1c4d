"""The banded, low-rank and Lanczos paths against dense references.

The library never forms a dense N x N or 2N x 2N matrix; the dense forms of
U, G0 X, gamma.Pi - m and the channel Hamiltonians live here only, as
references: for the FW and propagator paths on the N=640 bundle, for the
level commutators [U, P_n] at n_max = 8 and 32 on the smallest grids that
build those levels, for the shift-invert Lanczos channel solve (against
numpy.linalg.eigh) at N=256 and N=384 over the profile kinds, the sign of
eB and p_y, and on derandomized draws up to N=2048 and n_max=16 against
both numpy.linalg.eigh and ARPACK (scipy's eigsh, the solver the package
ran before its own Lanczos).  No run goes through SuperLU: the propagator
and the channel solve use LAPACK band kernels; tests/test_package.py checks
that a run never imports scipy.sparse.
"""

import dataclasses
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.linalg import LinearOperator, eigsh

from ritusfw import cli, spectral_grid
from ritusfw.clifford import make_rep
from ritusfw.errors import DiscretizationError, RitusFWError
from ritusfw.field_profiles import (exponential_profile,
                                    susy_partner_potentials, tabulated_profile,
                                    uniform_profile)
from ritusfw.foldy_wouthuysen import (projector_commutation_residual,
                                      restricted_hamiltonian,
                                      unitarity_residual)
from ritusfw.operators import BAND, band_product, channel_hamiltonian
from ritusfw.problem import Problem
from ritusfw.propagator import project_propagator
from ritusfw.ritus_basis import dirac_overlap, orthonormality_matrix
from ritusfw.spectral_grid import (PHASE_THRESHOLD, SHIFT_GAP, ZERO_CLAMP, ZERO_ROUNDING,
                                   GridConfig, build_grid, solve_channel)

from bands import dense, dense_spinor

P0 = 0.3
MASS = 1.0


def dense_U(fw):
    E, W, h = fw.levels.E, fw.W, fw.levels.grid.h
    return np.eye(E.shape[0]) + h * (E @ (W - np.eye(W.shape[0])) @ E.T)


def dense_G0(ops):
    return np.kron(ops.rep.gamma[0].real, np.eye(ops.x.size))


def dense_unitarity(fw):
    U = dense_U(fw)
    return float(np.abs(U.T @ U - np.eye(U.shape[0])).max())


def level_commutators(fw):
    """([U, P_n], [E_p, U^T E_p]) of each level n, with P_n = h E_p E_p^T.

    The dense commutator is U P_n - P_n U = h ((U E_p) E_p^T - E_p (U^T E_p)^T),
    so its rows lie in the span of the second matrix's columns.
    """
    U, h = dense_U(fw), fw.levels.grid.h
    for n in range(len(fw.levels)):
        Ep = fw.levels.Ep(n)
        rows = np.hstack([Ep, U.T @ Ep])
        C = np.hstack([U @ Ep, -Ep]) @ rows.T
        C *= h
        yield C, rows


def dense_commutation(fw):
    return max(float(np.abs(C).max()) for C, _ in level_commutators(fw))


def dense_commutation_norm(fw):
    """max over levels of ||[U, P_n]||_2, exact: C vanishes off its row space, so
    ||C||_2 = ||C Q||_2 for an orthonormal Q spanning it."""
    return max(float(np.linalg.norm(C @ np.linalg.qr(rows)[0], 2))
               for C, rows in level_commutators(fw))


def test_fw_operator_matches_dense_low_rank_form(uni, rng):
    U = dense_U(uni.fw)
    V = rng.standard_normal((U.shape[0], 3))
    assert np.abs(uni.fw.apply(V) - U @ V).max() < 1e-13
    assert np.abs(uni.fw.apply(V[:, 0]) - U @ V[:, 0]).max() < 1e-13


def test_restricted_hamiltonian_matches_dense(uni):
    fw, ops = uni.fw, uni.ops
    # the populated columns of E: all but the zero mode's empty one
    B = math.sqrt(uni.grid.h) * uni.levels.E[:, uni.levels.projector > 0]
    for m in (MASS, 4.0):
        H_r, grading = restricted_hamiltonian(fw, m)
        ref = B.T @ ((dense_G0(ops) @ dense_spinor(ops.X)) @ B) + m * np.diag(grading)
        ref = 0.5 * (ref + ref.T)
        assert np.abs(H_r - ref).max() < 1e-12


def dense_K(ops, p0, m):
    return p0 * dense_G0(ops) - dense_spinor(ops.X) - m * np.eye(2 * ops.x.size)


def interleaved_order(N):
    """Block-order index of each interleaved position q = 2i + s."""
    order = np.empty(2 * N, dtype=int)
    order[0::2], order[1::2] = np.arange(N), np.arange(N, 2 * N)
    return order


def test_project_propagator_matches_dense_lu(uni):
    ops, levels = uni.ops, uni.levels
    res = project_propagator(levels, P0, MASS, ops)
    # the reference factors the dense matrix in the interleaved order, as
    # test_banded_solve_matches_dense_lu does: in the block order, partial
    # pivoting grows U by ~4e4 and leaves a residual ~2e-9 at the walls
    K = dense_K(ops, P0, MASS)
    E = np.hstack([levels.Ep(n) for n in range(len(levels))])
    order = interleaved_order(ops.x.size)
    Z = np.empty_like(E)
    Z[order] = lu_solve(lu_factor(K[np.ix_(order, order)]), E[order])
    g0 = uni.rep.gamma[0]
    h = uni.grid.h
    for i in range(len(levels)):
        for j in range(len(levels)):
            ref = g0 @ (h * (levels.Ep(i).T @ (ops.g0diag[:, None] * Z[:, 2 * j:2 * j + 2])))
            assert np.abs(res["blocks"][i, j] - ref).max() < 1e-12


@pytest.fixture(scope="module")
def expo():
    return Problem(exponential_profile(1.0, 0.1), make_rep("first"), p_y=0.0, e=1.0, m=MASS,
                   p0=P0, n_max=6, grid_config=GridConfig(n_points=640), tol_eig=1e-6)


@pytest.mark.parametrize("near_pole", [False, True])
@pytest.mark.parametrize("which", ["uniform-first", "uniform-second", "exponential"])
def test_banded_solve_matches_dense_lu(uni, uni_second, expo, which, near_pole):
    prob = {"uniform-first": uni, "uniform-second": uni_second, "exponential": expo}[which]
    ops, levels = prob.ops, prob.levels
    # the pole sweep's closest p0 to the on-shell energy of level 1
    p0 = math.sqrt(levels.k[1] + MASS**2) - 0.0125 if near_pole else P0
    E = np.hstack([levels.Ep(n) for n in range(len(levels))])
    Z = ops.dirac_solver(p0, MASS)(E)
    K = dense_K(ops, p0, MASS)
    # backward stable: the residual is rounding relative to |K| |Z|
    assert np.abs(K @ Z - E).max() < 1e-14 * np.abs(K).sum(axis=1).max() * np.abs(Z).max()
    # the dense reference factors the same matrix in the interleaved order:
    # in the block order, partial pivoting grows the entries of U by ~4e4 on
    # the N=640 uniform bundle and leaves a residual ~2e-9
    order = interleaved_order(ops.x.size)
    ref = np.empty_like(Z)
    ref[order] = lu_solve(lu_factor(K[np.ix_(order, order)]), E[order])
    assert np.abs(Z - ref).max() < 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("variant", ["first", "second"])
def test_interleaved_gamma_dot_pi_has_half_bandwidth_five(uni, uni_second, variant):
    ops = (uni if variant == "first" else uni_second).ops
    order = interleaved_order(ops.x.size)
    q, r = np.nonzero(dense_K(ops, P0, MASS)[np.ix_(order, order)])
    assert BAND == 5
    assert np.abs(q - r).max() == BAND


def test_orthonormality_matrix_matches_blockwise_overlaps(uni):
    levels = uni.levels
    gram = orthonormality_matrix(levels, uni.ops)
    for i in range(len(levels)):
        for j in range(len(levels)):
            block = dirac_overlap(levels.Ep(i), levels.Ep(j), uni.ops)
            assert np.abs(gram[2 * i:2 * i + 2, 2 * j:2 * j + 2] - block).max() < 1e-14


def cap_threads(monkeypatch):
    # main() pins the thread variables to 1; keep them test-local
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, "1")


def not_positive_definite(band, *args, **kwargs):
    return band, 1


def test_cholesky_failure_is_a_discretization_error(uni, monkeypatch):
    monkeypatch.setattr(spectral_grid, "dpbtrf", not_positive_definite)
    with pytest.raises(DiscretizationError, match="not positive definite"):
        solve_channel(uni.profile, 0.0, 1.0, +1, uni.grid, N_LEVELS)


def test_cholesky_failure_under_all(tmp_path, monkeypatch):
    monkeypatch.setattr(spectral_grid, "dpbtrf", not_positive_definite)
    cap_threads(monkeypatch)
    out = tmp_path / "d"
    assert cli.main(["all", "--grid-n", "256", "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "fail"
    for section in report["sections"].values():
        assert section["checks"] == {}
        assert section["error"].startswith("DiscretizationError: H - shift is not positive")


@pytest.mark.parametrize("where", ["cluster", "cross"])
def test_residuals_not_below_dense_max_entry(uni, where):
    fw = uni.fw
    W = fw.W.copy()
    if where == "cluster":
        sl = slice(6, 8)                    # level 3's columns
        W[sl, sl] += 1e-6 * np.array([[1.0, 0.5], [-0.25, 2.0]])
    else:
        W[4, 8] = 1e-6                      # level 2's first column, level 4's
    bad = dataclasses.replace(fw, W=W)

    unit, unit_ref = unitarity_residual(bad), dense_unitarity(bad)
    assert unit_ref > 1e-10
    assert unit >= unit_ref

    comm, comm_ref = projector_commutation_residual(bad), dense_commutation(bad)
    if where == "cluster":
        # a perturbation inside one level's block still commutes with P_n
        assert comm < 1e-12 and comm_ref < 1e-12
    else:
        assert comm_ref > 1e-10
        assert comm >= comm_ref


@functools.lru_cache(maxsize=None)
def small_problem(n_max, variant):
    """The smallest grid, a multiple of 32, on which levels 0..n_max build."""
    for N in range(32 * math.ceil(4 * (n_max + 1) / 32), 1025, 32):
        prob = Problem(uniform_profile(1.0), make_rep(variant), p_y=0.0, e=1.0, m=MASS,
                       p0=P0, n_max=n_max, grid_config=GridConfig(n_points=N), tol_eig=1e-6)
        try:
            prob.fw
        except RitusFWError:
            continue
        return prob
    raise AssertionError(f"no grid up to N = 1024 builds levels 0..{n_max}")


@pytest.mark.parametrize("variant", ["first", "second"])
@pytest.mark.parametrize("n_max", [8, 32])
def test_projector_commutation_matches_dense_spectral_norm(n_max, variant):
    fw = small_problem(n_max, variant).fw
    assert abs(projector_commutation_residual(fw) - dense_commutation_norm(fw)) < 1e-14
    # and on a W that does not commute: level 2's first column coupled to level 4's
    W = fw.W.copy()
    W[4, 8] = 1e-6
    bad = dataclasses.replace(fw, W=W)
    ref = dense_commutation_norm(bad)
    assert ref > 1e-7
    assert abs(projector_commutation_residual(bad) - ref) < 1e-14


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


def channel_potential(profile, p_y, sigma, grid):
    return susy_partner_potentials(profile, p_y, 1.0)[0 if sigma > 0 else 1](grid.x)


def solver_conventions(vals, vecs, V, h):
    """The solver's zero-mode clamp, quadrature norm and phase rule, applied here on their own.

    Each vector is positive at its first sample from the left above
    PHASE_THRESHOLD of its peak.
    """
    bound = ZERO_ROUNDING * np.finfo(float).eps * (16 / (3 * h**2) + np.abs(V).max())
    vals = np.where((np.abs(vals) <= bound) | ((vals > -ZERO_CLAMP) & (vals < 0.0)), 0.0, vals)
    vecs = vecs / np.sqrt(h)
    for n in range(vecs.shape[1]):
        mag = np.abs(vecs[:, n])
        first = np.flatnonzero(mag > PHASE_THRESHOLD * mag.max())[0]
        vecs[:, n] *= np.sign(vecs[first, n])
    return vals, vecs


def dense_channel(profile, p_y, sigma, grid, n_levels=N_LEVELS):
    """Lowest eigenpairs of the dense channel Hamiltonian, with the solver's conventions."""
    V = channel_potential(profile, p_y, sigma, grid)
    vals, vecs = np.linalg.eigh(dense(channel_hamiltonian(V, grid.h), symmetric=True))
    return solver_conventions(vals[:n_levels], vecs[:, :n_levels], V, grid.h)


def arpack_channel(profile, p_y, sigma, grid, n_levels):
    """ARPACK's implicitly restarted Lanczos (eigsh) on the solver's shift, factor and v0."""
    V = channel_potential(profile, p_y, sigma, grid)
    N, H = V.size, channel_hamiltonian(V, grid.h)
    v_min = float(V.min())
    shift = v_min - SHIFT_GAP * max(1.0, abs(v_min))
    band = H.copy()
    band[2] -= shift
    chol, info = dpbtrf(band)
    assert info == 0
    vals, vecs = eigsh(
        LinearOperator((N, N), matvec=lambda v: band_product(H, v, symmetric=True), dtype=float),
        k=n_levels, sigma=shift, which="LM", v0=np.random.default_rng(0).standard_normal(N),
        tol=0, OPinv=LinearOperator((N, N), matvec=lambda v: dpbtrs(chol, v)[0], dtype=float))
    order = np.argsort(vals)
    return solver_conventions(vals[order], vecs[:, order], V, grid.h)


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


LANCZOS = spectral_grid._shift_invert_lanczos
WIDE_X = np.linspace(-16.0, 16.0, 321)
KINDS = {
    "uniform": uniform_profile,
    "exponential": lambda B: exponential_profile(B, 0.1),
    # wide enough for the WKB walls of level 16
    "tabulated": lambda B: tabulated_profile(WIDE_X, B * (WIDE_X + 0.05 * np.sin(WIDE_X))),
}


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(kind=st.sampled_from(sorted(KINDS)), sign=st.sampled_from([1.0, -1.0]),
       sigma=st.sampled_from([1, -1]), p_y=st.floats(-1.0, 1.0), N=st.integers(256, 2048),
       n_max=st.integers(1, 16))
def test_channel_solve_matches_dense_eigh_and_arpack(kind, sign, sigma, p_y, N, n_max):
    profile = KINDS[kind](sign)
    grid = build_grid(profile, p_y, n_max, GridConfig(n_points=N))
    spec = solve_channel(profile, p_y, 1.0, sigma, grid, n_max + 1, tol_eig=1e-3)
    V = channel_potential(profile, p_y, sigma, grid)
    # dense eigh is backward stable only: its eigenvalues carry an error of
    # up to about eps ||H||, ~2e-11 at N=2048, on top of which the Lanczos
    # values are held to 1e-12 relative
    norm_H = 16 / (3 * grid.h**2) + np.abs(V).max()
    for (vals, vecs), floor in ((dense_channel(profile, p_y, sigma, grid, n_max + 1),
                                 4 * np.finfo(float).eps * norm_H),
                                (arpack_channel(profile, p_y, sigma, grid, n_max + 1), 0.0)):
        err = np.abs(spec.eigenvalues - vals)
        assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(vals)) + floor), err.max()
        assert np.abs(spec.eigenfunctions - vecs).max() < 1e-8


@pytest.mark.parametrize("m", [N_LEVELS + 1, N_LEVELS + 5])
def test_thick_restarts_reach_the_unrestarted_pairs(uni, monkeypatch, m):
    # a basis of m vectors needs thick restarts before the 7 levels converge
    ref = solve_channel(uni.profile, 0.0, 1.0, +1, uni.grid, N_LEVELS)

    def small_basis(chol, shift, v0, k, _, restarts):
        with pytest.raises(DiscretizationError, match="did not converge"):
            LANCZOS(chol, shift, v0, k, m, 0)
        return LANCZOS(chol, shift, v0, k, m, 200)

    monkeypatch.setattr(spectral_grid, "_shift_invert_lanczos", small_basis)
    spec = solve_channel(uni.profile, 0.0, 1.0, +1, uni.grid, N_LEVELS)
    assert np.abs(spec.eigenvalues - ref.eigenvalues).max() < 1e-12 * ref.eigenvalues.max()
    assert np.abs(spec.eigenfunctions - ref.eigenfunctions).max() < 1e-8


def no_convergence(chol, shift, v0, k, m, restarts):
    # the solver itself, on a basis of k + 1 vectors that it may not restart
    return LANCZOS(chol, shift, v0, k, k + 1, 0)


def test_lanczos_no_convergence_is_a_discretization_error(uni, monkeypatch):
    monkeypatch.setattr(spectral_grid, "_shift_invert_lanczos", no_convergence)
    with pytest.raises(DiscretizationError, match="did not converge"):
        solve_channel(uni.profile, 0.0, 1.0, +1, uni.grid, N_LEVELS)


def test_lanczos_no_convergence_under_all(tmp_path, monkeypatch):
    monkeypatch.setattr(spectral_grid, "_shift_invert_lanczos", no_convergence)
    cap_threads(monkeypatch)
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
