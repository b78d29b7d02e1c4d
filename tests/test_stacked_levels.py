"""The stacked level checks against per-level loops, and the closed-form rotations against expm.

Every check over the levels acts once on the stacked E = [E_0 | E_1 | ...].
The loops here redo each check one level (or one pair of levels) at a time,
and scipy.linalg.expm redoes each field FW rotation; both are references
only.  The residuals are relative to ||E_p||, so a difference of 1e-14
between two of them is 1e-14 of ||E_p||.  The eigen relation and the
intertwining also agree to 1e-14 of their own value; the main claim's
residual is a cancellation of O(1) columns down to 1e-9 .. 1e-16, and the
stacked product rounds its last bits differently, so it is compared in
units of ||E_p|| alone.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from ritusfw.clifford import make_rep
from ritusfw.field_profiles import uniform_profile
from ritusfw.foldy_wouthuysen import field_fw_from_levels, free_fw, theta, verify_main_claim
from ritusfw.operators import band_product, channel_slots
from ritusfw.problem import Problem
from ritusfw.propagator import diagonal_propagator, project_propagator
from ritusfw.ritus_basis import (RitusLevels, dirac_overlap, times_blocks,
                                 verify_eigen_relation, verify_gpEp)
from ritusfw.spectral_grid import GridConfig

P0 = 0.3
MASS = 1.0
TOL = 1e-14


@pytest.fixture(scope="module", params=[8, 32], ids=lambda n: f"n_max={n}")
def problems(request):
    first = Problem(uniform_profile(1.0), make_rep("first"), p_y=0.0, e=1.0, m=MASS, p0=P0,
                    n_max=request.param, grid_config=GridConfig(n_points=1024), tol_eig=1e-6)
    return first, first.other_rep()


def p2(levels, n):
    """Level n's pbar_2 = sqrt(k) as a float, a negative k read as 0; its ** 2 is libm's pow."""
    return math.sqrt(max(float(levels.k[n]), 0.0))


def eigen_relation_loop(prob, levels):
    N, slots = prob.grid.n_points, channel_slots(prob.rep)
    out = []
    for n in range(len(levels)):
        Ep = levels.Ep(n)
        PiE = np.empty_like(Ep)
        for spec in (prob.spec_plus, prob.spec_minus):
            rows = slice(slots[spec.sigma] * N, (slots[spec.sigma] + 1) * N)
            PiE[rows] = band_product(spec.hamiltonian, Ep[rows])
        residual = (levels.p0**2 * Ep - PiE) - (levels.p0**2 - p2(levels, n)**2) * Ep
        out.append(np.linalg.norm(residual) / np.linalg.norm(Ep))
    return np.array(out)


def intertwining_loop(prob, levels):
    ops = prob.ops
    out = []
    for n in range(len(levels)):
        Ep = levels.Ep(n)
        g_pbar = levels.p0 * prob.rep.gamma[0] - p2(levels, n) * prob.rep.gamma[2]
        residual = levels.p0 * (ops.g0diag[:, None] * Ep) - ops.X @ Ep - Ep @ g_pbar
        out.append(np.linalg.norm(residual) / np.linalg.norm(Ep))
    return np.array(out)


def main_claim_loop(fw):
    """U E_p - E_p U_free on the grid, U applied as V + E (D (h E^T V)), D = W - 1."""
    E, h = fw.levels.E, fw.levels.ops.h
    D = fw.W - np.eye(fw.W.shape[0])
    out = []
    for n, k in enumerate(fw.levels.k):
        Ep = fw.levels.Ep(n)
        UEp = Ep + E @ (D @ (h * (E.T @ Ep)))
        out.append(np.linalg.norm(UEp - Ep @ free_fw(k, fw.mass, fw.levels.ops.rep))
                   / np.linalg.norm(Ep))
    return np.array(out)


def propagator_loop(prob):
    """The (L, L, 2, 2) blocks, one solve per level and one overlap per pair, and their checks."""
    ops, levels = prob.ops, prob.levels
    solve = ops.dirac_solver(P0, MASS)
    L = len(levels)
    blocks = np.empty((L, L, 2, 2), dtype=complex)
    for j in range(L):
        Z = solve(np.array(levels.Ep(j)))
        for i in range(L):
            blocks[i, j] = dirac_overlap(levels.Ep(i), Z, ops)
    diagonal_error = 0.0
    for i in range(L):
        # the spin projector: the populated columns of E_p
        P = np.diag([float(np.any(levels.Ep(i)[:, c] != 0.0)) for c in range(2)])
        free = diagonal_propagator(P0, np.array([p2(levels, i)]), MASS, prob.rep)[0]
        diagonal_error = max(diagonal_error, float(np.abs(blocks[i, i] - P @ free @ P).max()))
    cross = max(float(np.linalg.norm(blocks[i, j])) for i in range(L) for j in range(L) if i != j)
    return blocks, diagonal_error, cross


def test_stacked_eigen_relation_and_intertwining_match_level_loops(problems):
    for prob in problems:
        # the problem's p0, and the levels relabeled to the on-shell energy of the top one
        on_shell = dataclasses.replace(prob.levels, p0=np.sqrt(prob.levels.k[-1] + MASS**2))
        for levels in (prob.levels, on_shell):
            ref = eigen_relation_loop(prob, levels)
            res = verify_eigen_relation(levels, prob.spec_plus, prob.spec_minus)
            assert np.all(np.abs(res - ref) <= TOL * ref)
            ref = intertwining_loop(prob, levels)
            assert np.all(np.abs(verify_gpEp(levels) - ref) <= TOL * ref)


def test_stacked_main_claim_matches_level_loop(problems):
    for prob in problems:
        res = verify_main_claim(prob.fw)
        assert res.shape == (len(prob.levels),)
        assert np.abs(res - main_claim_loop(prob.fw)).max() <= TOL


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
                X_nn = fw.K[sl, sl]
                ref[sl, sl] = expm(theta(k, m) * 0.5 * (X_nn - X_nn.T))
            assert np.abs(fw.W - ref).max() <= 1e-15
            assert np.array_equal(fw.W == 0.0, ref == 0.0)


def test_levels_share_one_stack(problems):
    for prob in problems:
        levels, N = prob.levels, prob.grid.n_points
        L = len(levels)
        assert isinstance(levels, RitusLevels) and levels.E.flags.f_contiguous
        assert levels.E.shape == (2 * N, 2 * L) and levels.k.shape == (L,)
        for n in range(L):
            Ep = levels.Ep(n)
            assert Ep.flags.f_contiguous and np.shares_memory(Ep, levels.E)
        # the zero-mode channel's level n in column 2n + a, the partner's
        # level n - 1 (up to its sign) in column 2n + b, and nothing else
        a, b = levels.zero_slot, 1 - levels.zero_slot
        spec_zero, spec_other = ((prob.spec_plus, prob.spec_minus) if levels.zero_channel > 0
                                 else (prob.spec_minus, prob.spec_plus))
        assert np.array_equal(levels.E[a * N:(a + 1) * N, a::2], spec_zero.eigenfunctions[:, :L])
        assert np.array_equal(np.abs(levels.E[b * N:(b + 1) * N, b + 2::2]),
                              np.abs(spec_other.eigenfunctions[:, :L - 1]))
        assert not levels.E[b * N:(b + 1) * N, a::2].any()
        assert not levels.E[a * N:(a + 1) * N, b::2].any()
        assert not levels.E[:, b].any()
        # operators built from E read it again later, so neither E nor a view takes writes
        with pytest.raises(ValueError, match="read-only"):
            levels.Ep(0)[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            levels.E[0, 0] = 1.0


def test_times_blocks_is_the_block_diagonal_product(rng):
    E = np.asfortranarray(rng.standard_normal((40, 6)))
    S = rng.standard_normal((3, 2, 2))
    dense = np.zeros((6, 6))
    for i in range(3):
        dense[2 * i:2 * i + 2, 2 * i:2 * i + 2] = S[i]
    assert np.abs(times_blocks(E, S) - E @ dense).max() <= 1e-15 * np.abs(E).max()
    assert np.array_equal(times_blocks(np.ascontiguousarray(E), S), times_blocks(E, S))

