"""The banded, low-rank and Lanczos paths against dense references.

The library never forms a dense N x N or 2N x 2N matrix, nor the levels'
(2N, 2L) E; the dense forms of U, E, G0 X, gamma.Pi - m and the channel
Hamiltonians live here (and in tests/bands.py) only, as
references: for the FW and propagator paths on the N=640 bundle, for the
level commutators [U, P_n] at n_max = 8 and 32 on the smallest grids that
build those levels, for the grid Dirac operator's doubler ladder at N=256
and N=512, for the shift-invert Lanczos channel solve (against
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
from ritusfw.field_profiles import (channel_potentials, exponential_profile,
                                    tabulated_profile, uniform_profile)
from ritusfw.foldy_wouthuysen import (field_fw_from_levels, free_fw,
                                      projector_commutation_residual, restricted_hamiltonian,
                                      unitarity_residual, verify_main_claim)
from ritusfw.operators import band_product, channel_hamiltonian, channel_slots
from ritusfw.problem import Problem
from ritusfw.propagator import BAND, _solve, project_propagator
from ritusfw.spectral_grid import (PHASE_THRESHOLD, SHIFT_GAP, ZERO_CLAMP, ZERO_ROUNDING, Grid,
                                   build_grid, solve_channel)

from bands import Ep, channel_solve, dense, dense_E, dense_spinor, g0_diagonal, sign_changes

P0 = 0.3
MASS = 1.0


def dense_U(fw):
    E, W, h = dense_E(fw.levels), fw.W, fw.levels.ops.h
    return np.eye(E.shape[0]) + h * (E @ (W - np.eye(W.shape[0])) @ E.T)


def dense_G0(ops):
    return np.kron(ops.rep.gamma[0].real, np.eye(ops.grid.n_points))


def dense_unitarity(fw):
    U = dense_U(fw)
    return float(np.abs(U.T @ U - np.eye(U.shape[0])).max())


def level_commutators(fw):
    """([U, P_n], [E_p, U^T E_p]) of each level n, with P_n = h E_p E_p^T.

    The dense commutator is U P_n - P_n U = h ((U E_p) E_p^T - E_p (U^T E_p)^T),
    so its rows lie in the span of the second matrix's columns.
    """
    U, h = dense_U(fw), fw.levels.ops.h
    for n in range(len(fw.levels)):
        E_p = Ep(fw.levels, n)
        rows = np.hstack([E_p, U.T @ E_p])
        C = np.hstack([U @ E_p, -E_p]) @ rows.T
        C *= h
        yield C, rows


def dense_commutation(fw):
    return max(float(np.abs(C).max()) for C, _ in level_commutators(fw))


def dense_commutation_norm(fw):
    """max over levels of ||[U, P_n]||_2, exact: C vanishes off its row space, so
    ||C||_2 = ||C Q||_2 for an orthonormal Q spanning it."""
    return max(float(np.linalg.norm(C @ np.linalg.qr(rows)[0], 2))
               for C, rows in level_commutators(fw))


def test_fw_operator_matches_dense_low_rank_form(uni_fw, rng):
    # the operator's factors against the dense U: V + E (D (h E^T V)) on grid
    # vectors, and U E = E (1 + D G), the form the main claim reads
    U, fw = dense_U(uni_fw), uni_fw
    D, G, _ = fw.factors
    E, h = dense_E(fw.levels), fw.levels.ops.h
    V = rng.standard_normal((U.shape[0], 3))
    for vec in (V, V[:, 0]):
        assert np.abs(vec + E @ (D @ (h * (E.T @ vec))) - U @ vec).max() < 1e-13
    assert np.abs(E @ (np.eye(G.shape[0]) + D @ G) - U @ E).max() < 1e-13


@pytest.mark.parametrize("variant", ["first", "second"])
def test_main_claim_from_factors_matches_dense_grid_residual(variant):
    # ||U E_p - E_p U_free|| / ||E_p|| with the dense U on the grid, against
    # the 2L x 2L form the operator's factors give
    prob = Problem(uniform_profile(1.0), make_rep(variant), p_y=0.0, e=1.0,
                   n_max=8, n_points=640, tol_eig=1e-6)
    levels = prob.levels
    fw = field_fw_from_levels(levels, MASS)
    U = dense_U(fw)
    ref = np.array([
        np.linalg.norm(U @ Ep(levels, n) - Ep(levels, n) @ free_fw(k, MASS, levels.ops.rep).real)
        / np.linalg.norm(Ep(levels, n))
        for n, k in enumerate(levels.k.tolist())])
    res = verify_main_claim(fw)
    assert res.shape == ref.shape == (9,)
    assert abs(res[0] - ref[0]) < 1e-14
    assert np.all(np.abs(res[1:] - ref[1:]) <= 1e-6 * ref[1:])


def test_restricted_hamiltonian_matches_dense(uni):
    ops = uni.ops
    # the populated columns of E: all but the zero mode's empty one
    B = math.sqrt(uni.grid.h) * dense_E(uni.levels)[:, uni.levels.projector > 0]
    for m in (MASS, 4.0):
        H_r, grading = restricted_hamiltonian(uni.levels, m)
        ref = B.T @ ((dense_G0(ops) @ dense_spinor(ops.X)) @ B) + m * np.diag(grading)
        ref = 0.5 * (ref + ref.T)
        assert np.abs(H_r - ref).max() < 1e-12


@pytest.mark.parametrize("variant", ["first", "second"])
@pytest.mark.parametrize("N", [384, 512])
def test_levels_K_matches_dense_with_or_without_U(N, variant):
    # K = h E^T X E reads neither a mass nor k: at N = 384 the zero mode stays
    # a flagged negative and U is refused, and the levels still hold K
    prob = Problem(uniform_profile(1.0), make_rep(variant), p_y=0.0, e=1.0,
                   n_max=4, n_points=N, tol_eig=1e-6)
    levels = prob.levels
    if N == 384:
        assert levels.k[0] < 0
        with pytest.raises(DiscretizationError, match="level 0 has k = "):
            field_fw_from_levels(levels, MASS)
    K, E = levels.K, dense_E(levels)
    assert not K[0::2, 0::2].any() and not K[1::2, 1::2].any()
    ref = prob.grid.h * (E.T @ (dense_spinor(prob.ops.X) @ E))
    assert np.abs(K - ref).max() <= 1e-14 * np.abs(K).max()


def dense_K(ops, p0, m):
    return p0 * dense_G0(ops) - dense_spinor(ops.X) - m * np.eye(2 * ops.grid.n_points)


def interleaved_order(N):
    """Block-order index of each interleaved position q = 2i + s."""
    order = np.empty(2 * N, dtype=int)
    order[0::2], order[1::2] = np.arange(N), np.arange(N, 2 * N)
    return order


def test_project_propagator_matches_dense_lu(uni):
    ops, levels = uni.ops, uni.levels
    res = project_propagator(levels, P0, MASS)
    # the reference factors the dense matrix in the interleaved order, as
    # test_banded_solve_matches_dense_lu does: in the block order, partial
    # pivoting grows U by ~4e4 and leaves a residual ~2e-9 at the walls
    K = dense_K(ops, P0, MASS)
    E = dense_E(levels)
    order = interleaved_order(ops.grid.n_points)
    Z = np.empty_like(E)
    Z[order] = lu_solve(lu_factor(K[np.ix_(order, order)]), E[order])
    g0, g0Z = uni.rep.gamma[0], g0_diagonal(ops)[:, None] * Z
    h = uni.grid.h
    for i in range(len(levels)):
        for j in range(len(levels)):
            ref = g0 @ (h * (Ep(levels, i).T @ g0Z[:, 2 * j:2 * j + 2]))
            assert np.abs(res["blocks"][i, j] - ref).max() < 1e-12


@pytest.fixture(scope="module")
def expo():
    return Problem(exponential_profile(1.0, 0.1), make_rep("first"), p_y=0.0, e=1.0,
                   n_max=6, n_points=640, tol_eig=1e-6)


@pytest.mark.parametrize("near_pole", [False, True])
@pytest.mark.parametrize("which", ["uniform-first", "uniform-second", "exponential"])
def test_banded_solve_matches_dense_lu(uni, uni_second, expo, which, near_pole):
    prob = {"uniform-first": uni, "uniform-second": uni_second, "exponential": expo}[which]
    ops, levels = prob.ops, prob.levels
    # the pole sweep's closest p0 to the on-shell energy of level 1
    p0 = math.sqrt(levels.k[1] + MASS**2) - 0.0125 if near_pole else P0
    # the solver takes and returns the interleaved order q = 2i + s
    order = interleaved_order(ops.grid.n_points)
    E = np.asfortranarray(dense_E(levels)[order])
    Z = _solve(levels, p0, MASS, E.copy(order="F"))
    K = dense_K(ops, p0, MASS)[np.ix_(order, order)]
    # backward stable: the residual is rounding relative to |K| |Z|
    assert np.abs(K @ Z - E).max() < 1e-14 * np.abs(K).sum(axis=1).max() * np.abs(Z).max()
    # the dense reference factors the same matrix in the interleaved order:
    # in the block order, partial pivoting grows the entries of U by ~4e4 on
    # the N=640 uniform bundle and leaves a residual ~2e-9
    ref = lu_solve(lu_factor(K), E)
    assert np.abs(Z - ref).max() < 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("variant", ["first", "second"])
def test_interleaved_gamma_dot_pi_has_half_bandwidth_five(uni, uni_second, variant):
    ops = (uni if variant == "first" else uni_second).ops
    order = interleaved_order(ops.grid.n_points)
    q, r = np.nonzero(dense_K(ops, P0, MASS)[np.ix_(order, order)])
    assert BAND == 5
    assert np.abs(q - r).max() == BAND


def test_orthonormality_matrix_matches_blockwise_overlaps(uni, uni_second):
    # the levels' Gram matrix is the Dirac-adjoint one, gamma^0 E_i^dag gamma^0 E_j
    for prob in (uni, uni_second):
        levels, g0, h = prob.levels, prob.rep.gamma[0], prob.grid.h
        g0E = g0_diagonal(prob.ops)[:, None] * dense_E(levels)
        for i in range(len(levels)):
            for j in range(len(levels)):
                block = g0 @ (h * (Ep(levels, i).T @ g0E[:, 2 * j:2 * j + 2]))
                assert np.abs(levels.gram[2 * i:2 * i + 2, 2 * j:2 * j + 2] - block).max() < 1e-14


def cap_threads(monkeypatch):
    # main() pins the thread variables to 1; keep them test-local
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, "1")


def not_positive_definite(band, *args, **kwargs):
    return band, 1


def test_cholesky_failure_is_a_discretization_error(uni, monkeypatch):
    monkeypatch.setattr("scipy.linalg.lapack.dpbtrf", not_positive_definite)
    with pytest.raises(DiscretizationError, match="not positive definite"):
        channel_solve(uni.profile, 0.0, +1, uni.grid, N_LEVELS)


def test_cholesky_failure_under_all(tmp_path, monkeypatch):
    monkeypatch.setattr("scipy.linalg.lapack.dpbtrf", not_positive_definite)
    cap_threads(monkeypatch)
    out = tmp_path / "d"
    assert cli.main(["all", "--grid-n", "256", "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "fail"
    for section in report["sections"].values():
        assert section["checks"] == {}
        assert section["error"].startswith("DiscretizationError: H - shift is not positive")


@pytest.mark.parametrize("where", ["cluster", "cross"])
def test_residuals_not_below_dense_max_entry(uni_fw, where):
    fw = uni_fw
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
def small_fw(n_max, variant):
    """U at m = MASS on the smallest grid, a multiple of 32, on which levels 0..n_max build it."""
    base = Problem(uniform_profile(1.0), make_rep(variant), p_y=0.0, e=1.0,
                   n_max=n_max, n_points=1024, tol_eig=1e-6)
    for N in range(32 * math.ceil(4 * (n_max + 1) / 32), 1025, 32):
        try:
            return field_fw_from_levels(base.refined(N).levels, MASS)
        except RitusFWError:
            continue
    raise AssertionError(f"no grid up to N = 1024 builds levels 0..{n_max}")


@pytest.mark.parametrize("variant", ["first", "second"])
@pytest.mark.parametrize("n_max", [8, 32])
def test_projector_commutation_matches_dense_spectral_norm(n_max, variant):
    fw = small_fw(n_max, variant)
    assert abs(projector_commutation_residual(fw) - dense_commutation_norm(fw)) < 1e-14
    # and on a W that does not commute: level 2's first column coupled to level 4's
    W = fw.W.copy()
    W[4, 8] = 1e-6
    bad = dataclasses.replace(fw, W=W)
    ref = dense_commutation_norm(bad)
    assert ref > 1e-7
    assert abs(projector_commutation_residual(bad) - ref) < 1e-14


# ----------------------------------------------------------------------
# the grid Dirac operator's doubler ladder
# ----------------------------------------------------------------------

DOUBLER_RUNGS = 7   # the rungs n = 1..7 of the ladder, below 25 |eB|


@pytest.mark.parametrize("N, n_max", [(256, 2), (512, 4)])
def test_doubler_ladder_and_its_overlap_with_the_levels(N, n_max):
    # D1's symbol (8 sin t - sin 2t) / 6h vanishes at t = pi, so the grid's
    # -X^2 = X^T X carries, beside the Landau levels 2n|eB|, a ladder
    # (10/3) n |eB| of grid-alternating eigenvectors, in pairs (one per slot).
    # The channel Hamiltonians' D2 stencil is 16/(3h^2) at t = pi: a doubler's
    # Rayleigh quotient under them is far above its eigenvalue, and the levels,
    # built from them, hold no doubler beyond rounding.  Here |eB| = 1
    prob = Problem(uniform_profile(1.0), make_rep("first"), p_y=0.0, e=1.0,
                   n_max=n_max, n_points=N, tol_eig=1e-6)
    X = dense_spinor(prob.ops.X)
    lam, V = np.linalg.eigh(X.T @ X)
    H = np.zeros_like(X)
    for sigma, band in prob.ops.H.items():
        s = channel_slots(prob.rep)[sigma]
        H[s * N:(s + 1) * N, s * N:(s + 1) * N] = dense(band)
    doubler = np.einsum("ij,ij->j", V, H @ V) > 10 * (lam + 1)
    # the zero doubler is degenerate with the physical zero mode, and eigh mixes the two
    doubler &= lam > 1.0
    ladder = lam[doubler]
    for n in (1, 2, 3):
        assert np.all(np.abs(ladder[2 * n - 2:2 * n] / (10 / 3 * n) - 1) < 5e-3), ladder[:6]
    low = doubler & (lam < 10 / 3 * (DOUBLER_RUNGS + 0.5))
    assert low.sum() == 2 * DOUBLER_RUNGS
    overlap = math.sqrt(prob.grid.h) * np.abs(dense_E(prob.levels).T @ V[:, low])
    assert overlap.max() <= 1e-8


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
        fw = field_fw_from_levels(prob.levels, MASS)
        unitarity_residual(fw)
        projector_commutation_residual(fw)
        restricted_hamiltonian(prob.levels, MASS)
        project_propagator(prob.levels, P0, MASS)
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
    return channel_potentials(profile, p_y, 1.0, grid.x)[1 if sigma > 0 else 2]


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
    vals, vecs = np.linalg.eigh(dense(channel_hamiltonian(V, grid.h)))
    return solver_conventions(vals[:n_levels], vecs[:, :n_levels], V, grid.h)


def arpack_channel(profile, p_y, sigma, grid, n_levels):
    """ARPACK's implicitly restarted Lanczos (eigsh) on the solver's shift, factor and v0."""
    V = channel_potential(profile, p_y, sigma, grid)
    N, H = V.size, channel_hamiltonian(V, grid.h)
    v_min = float(V.min())
    shift = v_min - SHIFT_GAP * max(grid.domain.length ** -2, abs(v_min))
    band = H[:3].copy()
    band[2] -= shift
    chol, info = dpbtrf(band)
    assert info == 0
    vals, vecs = eigsh(
        LinearOperator((N, N), matvec=lambda v: band_product(H, v), dtype=float),
        k=n_levels, sigma=shift, which="LM", v0=np.random.default_rng(0).standard_normal(N),
        tol=0, OPinv=LinearOperator((N, N), matvec=lambda v: dpbtrs(chol, v)[0], dtype=float))
    order = np.argsort(vals)
    return solver_conventions(vals[order], vecs[:, order], V, grid.h)


@pytest.mark.parametrize("N", [256, 384])
@pytest.mark.parametrize("p_y", [-0.7, 0.0, 0.9])
@pytest.mark.parametrize("name", list(PROFILES))
def test_channel_solve_matches_dense_eigh(name, p_y, N):
    profile = PROFILES[name]
    grid = Grid(build_grid(profile, p_y, N_LEVELS - 1), N)
    for sigma in (+1, -1):
        spec = channel_solve(profile, p_y, sigma, grid, N_LEVELS, tol_eig=1e-3)
        vals, vecs = dense_channel(profile, p_y, sigma, grid)
        assert np.abs(spec.eigenvalues - vals).max() < 1e-10
        assert np.abs(spec.eigenfunctions - vecs).max() < 1e-8
        if name == "uniform+" and p_y == 0.0:
            # a skipped odd level would show up as a wrong node count
            assert [sign_changes(phi) for phi in spec.eigenfunctions.T] == list(range(N_LEVELS))


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
    grid = Grid(build_grid(profile, p_y, n_max), N)
    spec = channel_solve(profile, p_y, sigma, grid, n_max + 1, tol_eig=1e-3)
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
    ref = channel_solve(uni.profile, 0.0, +1, uni.grid, N_LEVELS)

    def small_basis(chol, shift, v0, k, _, restarts):
        with pytest.raises(DiscretizationError, match="did not converge"):
            LANCZOS(chol, shift, v0, k, m, 0)
        return LANCZOS(chol, shift, v0, k, m, 200)

    monkeypatch.setattr(spectral_grid, "_shift_invert_lanczos", small_basis)
    spec = channel_solve(uni.profile, 0.0, +1, uni.grid, N_LEVELS)
    assert np.abs(spec.eigenvalues - ref.eigenvalues).max() < 1e-12 * ref.eigenvalues.max()
    assert np.abs(spec.eigenfunctions - ref.eigenfunctions).max() < 1e-8


def no_convergence(chol, shift, v0, k, m, restarts):
    # the solver itself, on a basis of k + 1 vectors that it may not restart
    return LANCZOS(chol, shift, v0, k, k + 1, 0)


def test_lanczos_no_convergence_is_a_discretization_error(uni, monkeypatch):
    monkeypatch.setattr(spectral_grid, "_shift_invert_lanczos", no_convergence)
    with pytest.raises(DiscretizationError, match="did not converge"):
        channel_solve(uni.profile, 0.0, +1, uni.grid, N_LEVELS)


def test_lanczos_breakdown_is_a_discretization_error(uni, monkeypatch):
    # a start vector of norm 0 makes the first Lanczos vector not finite
    def zero_start(chol, shift, v0, k, m, restarts):
        with np.errstate(invalid="ignore"):
            return LANCZOS(chol, shift, np.zeros_like(v0), k, m, restarts)

    monkeypatch.setattr(spectral_grid, "_shift_invert_lanczos", zero_start)
    with pytest.raises(DiscretizationError, match="broke down at step 0"):
        channel_solve(uni.profile, 0.0, +1, uni.grid, N_LEVELS)


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
            solve_channel(uni.ops.H[sigma], uni.ops.V[sigma], uni.grid, sigma, N_LEVELS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < one_dense, f"peak {peak / 2**20:.2f} MiB >= one dense N x N array"
