"""The level checks on the slot blocks against per-level loops, and the rotations against expm.

Every check over the levels acts once on their two (N, L) slot blocks F[s].
The loops here redo each check one level (or one pair of levels) at a time
on the dense (2N, 2) E_p, and scipy.linalg.expm redoes each field FW
rotation; both are references only.  The residuals are relative to
||E_p||, so a difference of 1e-14 between two of them is 1e-14 of ||E_p||.
The eigen relation and the intertwining also agree to 1e-14 of their own
value; the main claim's residual is a cancellation of O(1) columns down to
1e-9 .. 1e-16, and the products on the blocks round their last bits
differently, so it is compared in units of ||E_p|| alone.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from ritusfw.clifford import make_rep
from ritusfw.field_profiles import uniform_profile
from ritusfw.foldy_wouthuysen import field_fw_from_levels, free_fw, theta, verify_main_claim
from ritusfw.operators import band_product, channel_slots
from ritusfw.problem import Problem
from ritusfw.propagator import _solve, diagonal_propagator, project_propagator
from ritusfw.ritus_basis import RitusLevels, verify_eigen_relation, verify_gpEp

from bands import Ep, dense_E, dense_spinor, g0_diagonal

P0 = 0.3
MASS = 1.0
TOL = 1e-14


@pytest.fixture(scope="module", params=[8, 32], ids=lambda n: f"n_max={n}")
def problems(request):
    first = Problem(uniform_profile(1.0), make_rep("first"), p_y=0.0, e=1.0,
                    n_max=request.param, n_points=1024, tol_eig=1e-6)
    return first, first.other_rep()


def p2(levels, n):
    """Level n's pbar_2 = sqrt(k) as a float, a negative k read as 0."""
    return math.sqrt(max(float(levels.k[n]), 0.0))


def eigen_relation_loop(prob):
    """Pi-tilde^2 E_p - max(k, 0) E_p per level, Pi-tilde^2 the channel Hamiltonian per slot."""
    levels, N, slots = prob.levels, prob.grid.n_points, channel_slots(prob.rep)
    out = []
    for n in range(len(levels)):
        E_p = Ep(levels, n)
        PiE = np.empty_like(E_p)
        for sigma, H in prob.ops.H.items():
            rows = slice(slots[sigma] * N, (slots[sigma] + 1) * N)
            PiE[rows] = band_product(H, E_p[rows])
        residual = PiE - max(float(levels.k[n]), 0.0) * E_p
        out.append(np.linalg.norm(residual) / np.linalg.norm(E_p))
    return np.array(out)


def intertwining_loop(prob, p0):
    """(gamma.Pi) E_p - E_p gamma^mu pbar_mu per level at energy p0, pbar = (p0, 0, p2)."""
    ops, levels, N, g0 = prob.ops, prob.levels, prob.grid.n_points, g0_diagonal(prob.ops)
    out = []
    for n in range(len(levels)):
        E_p = Ep(levels, n)
        g_pbar = p0 * prob.rep.gamma[0] - p2(levels, n) * prob.rep.gamma[2]
        # X E_p on the block order: X[s] on slot 1 - s lands on slot s
        XE = np.concatenate([band_product(ops.X[0], E_p[N:]), band_product(ops.X[1], E_p[:N])])
        residual = p0 * (g0[:, None] * E_p) - XE - E_p @ g_pbar
        out.append(np.linalg.norm(residual) / np.linalg.norm(E_p))
    return np.array(out)


def main_claim_loop(fw):
    """U E_p - E_p U_free on the grid, U applied as V + E (D (h E^T V)), D = W - 1."""
    E, h = dense_E(fw.levels), fw.levels.ops.h
    D = fw.W - np.eye(fw.W.shape[0])
    out = []
    for n, k in enumerate(fw.levels.k):
        E_p = E[:, 2 * n:2 * n + 2]
        UEp = E_p + E @ (D @ (h * (E.T @ E_p)))
        out.append(np.linalg.norm(UEp - E_p @ free_fw(k, fw.mass, fw.levels.ops.rep))
                   / np.linalg.norm(E_p))
    return np.array(out)


def propagator_loop(prob):
    """The (L, L, 2, 2) blocks, one solve per level and one overlap per pair, and their checks.

    Each solve goes through the block spinor order: E_p is interleaved for
    the solver and its solution de-interleaved again.  Each overlap is the
    Dirac adjoint gamma^0 E_i^dag gamma^0 Z with both gamma^0 applied.
    """
    ops, levels = prob.ops, prob.levels
    N, L = prob.grid.n_points, len(levels)
    g0, g0_diag, h = prob.rep.gamma[0], g0_diagonal(ops)[:, None], prob.grid.h
    blocks = np.empty((L, L, 2, 2), dtype=complex)
    for j in range(L):
        E_j = Ep(levels, j)
        rhs = np.empty_like(E_j)
        rhs[0::2], rhs[1::2] = E_j[:N], E_j[N:]
        Z_int = _solve(levels, P0, MASS, rhs)
        Z = np.concatenate([Z_int[0::2], Z_int[1::2]])
        for i in range(L):
            blocks[i, j] = g0 @ (h * (Ep(levels, i).T @ (g0_diag * Z)))
    diagonal_error = 0.0
    for i in range(L):
        # the spin projector: the populated columns of E_p
        P = np.diag([float(np.any(Ep(levels, i)[:, c] != 0.0)) for c in range(2)])
        free = diagonal_propagator(P0, np.array([p2(levels, i)]), MASS, prob.rep)[0]
        diagonal_error = max(diagonal_error, float(np.abs(blocks[i, i] - P @ free @ P).max()))
    cross = max(float(np.linalg.norm(blocks[i, j])) for i in range(L) for j in range(L) if i != j)
    return blocks, diagonal_error, cross


def test_stacked_eigen_relation_and_intertwining_match_level_loops(problems):
    for prob in problems:
        ref = eigen_relation_loop(prob)
        assert np.all(np.abs(verify_eigen_relation(prob.levels) - ref) <= TOL * ref)
        # p0 gamma^0 cancels on each slot: the run's p0 and the top level's on-shell energy
        for p0 in (P0, math.sqrt(prob.levels.k[-1] + MASS**2)):
            ref = intertwining_loop(prob, p0)
            assert np.all(np.abs(verify_gpEp(prob.levels) - ref) <= TOL * ref)


def test_stacked_main_claim_matches_level_loop(problems):
    for prob in problems:
        fw = field_fw_from_levels(prob.levels, MASS)
        res = verify_main_claim(fw)
        assert res.shape == (len(prob.levels),)
        assert np.abs(res - main_claim_loop(fw)).max() <= TOL


def test_stacked_propagator_blocks_match_pair_loop(problems):
    for prob in problems:
        res = project_propagator(prob.levels, P0, MASS)
        blocks, diagonal_error, cross = propagator_loop(prob)
        scale = np.abs(blocks).max()
        assert np.abs(res["blocks"] - blocks).max() <= TOL * scale
        assert abs(res["diagonal_error"] - diagonal_error) <= TOL * scale
        assert abs(res["cross_norm"] - cross) <= TOL * scale
        norms = [np.linalg.norm(blocks[i, i]) for i in range(len(prob.levels))]
        assert np.abs(np.subtract(res["diagonal_norms"], norms)).max() <= TOL * scale


def test_closed_form_rotations_match_expm(problems):
    # each 2x2 block of W is expm(theta_n X_nn) with X_nn the antisymmetrized
    # diagonal block of K = h E^T X E (0 on the zero mode's, so W_0 = 1);
    # off the blocks W is exactly zero
    for prob in problems:
        for m in (0.5, MASS, 4.0):
            fw = field_fw_from_levels(prob.levels, m)
            ref = np.zeros_like(fw.W)
            for n, k in enumerate(fw.levels.k):
                sl = slice(2 * n, 2 * n + 2)
                X_nn = prob.levels.K[sl, sl]
                ref[sl, sl] = expm(theta(k, m) * 0.5 * (X_nn - X_nn.T))
            assert np.abs(fw.W - ref).max() <= 1e-15
            assert np.array_equal(fw.W == 0.0, ref == 0.0)


def test_levels_share_one_stack(problems):
    # the levels are two (N, L) slot blocks: the zero-mode channel's is its
    # spectrum's eigenfunction stack itself, the partner's is the one copy
    for prob in problems:
        levels, N = prob.levels, prob.grid.n_points
        L = len(levels)
        assert isinstance(levels, RitusLevels) and levels.k.shape == (L,)
        assert isinstance(levels.F, tuple) and [f.shape for f in levels.F] == [(N, L)] * 2
        a, b = levels.zero_slot, 1 - levels.zero_slot
        # the zero-mode channel is the one channel_slots places on the zero slot
        spec_zero, spec_other = ((prob.spec_plus, prob.spec_minus)
                                 if channel_slots(prob.rep)[+1] == a
                                 else (prob.spec_minus, prob.spec_plus))
        assert np.shares_memory(levels.F[a], spec_zero.eigenfunctions)
        assert np.array_equal(levels.F[a], spec_zero.eigenfunctions[:, :L])
        # the partner's level n - 1 in column n, up to its sign, and a zero column 0
        assert not np.shares_memory(levels.F[b], spec_other.eigenfunctions)
        assert not levels.F[b][:, 0].any()
        v = spec_other.eigenfunctions[:, :L - 1]
        partner = levels.F[b][:, 1:]
        assert np.all((partner == v).all(axis=0) | (partner == -v).all(axis=0))
        # operators built from the levels read them again later, so no block takes writes
        for f in levels.F:
            with pytest.raises(ValueError, match="read-only"):
                f[0, 0] = 1.0
        assert spec_zero.eigenfunctions.flags.writeable


def test_gram_and_K_are_slot_structured(problems):
    # G = h E^T E has no entry coupling two slots, K = h E^T X E none within a
    # slot; both are read-only and agree with the dense products over the (2N, 2L) E
    for prob in problems:
        levels = prob.levels
        G, K = levels.gram, levels.K
        assert not G[0::2, 1::2].any() and not G[1::2, 0::2].any()
        assert not K[0::2, 0::2].any() and not K[1::2, 1::2].any()
        fw = field_fw_from_levels(levels, MASS)
        assert fw.factors[1][1 - levels.zero_slot, 1 - levels.zero_slot] == 1.0
        for A in (G, K):
            with pytest.raises(ValueError, match="read-only"):
                A[0, 0] = 1.0
        E, h = dense_E(levels), prob.grid.h
        assert np.abs(G - h * (E.T @ E)).max() <= TOL
        XE = dense_spinor(prob.ops.X) @ E
        assert np.abs(K - h * (E.T @ XE)).max() <= TOL * np.abs(K).max()
