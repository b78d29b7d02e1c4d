"""Level assembly, orthonormality, intertwining, completeness, exports."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ritusfw.clifford import make_rep
from ritusfw.errors import ArgumentError, DiscretizationError, PairingError, TruncationError
from ritusfw.field_profiles import exponential_profile, susy_partner_potentials, uniform_profile
from ritusfw.foldy_wouthuysen import (projector_commutation_residual, restricted_hamiltonian,
                                      unitarity_residual, verify_main_claim)
from ritusfw.operators import GridOperators, band_product, channel_hamiltonian, channel_slots
from ritusfw.problem import Problem
from ritusfw.ritus_basis import (assemble_levels, completeness_residual, export_levels_csv,
                                 orthonormality_matrix, verify_eigen_relation,
                                 verify_gpEp, zero_mode_annihilation)
from ritusfw.spectral_grid import GridConfig


def test_zero_level_structure(uni):
    levels = uni.levels
    assert levels.zero_channel == +1 and levels.zero_slot == 0
    assert np.array_equal(levels.projector[:2], [1.0, 0.0])
    # single populated column on slot 0, nothing anywhere else
    N, E0 = uni.grid.n_points, levels.Ep(0)
    assert np.all(E0[N:, :] == 0.0)
    assert np.all(E0[:, 1] == 0.0)
    assert levels.k[0] == 0.0


def test_higher_levels_pair_channels(uni):
    levels = uni.levels
    L = len(levels)
    assert np.all(levels.projector[2:] == 1.0)
    # the zero mode lives in sigma = +1: its level n pairs with sigma = -1's level n - 1
    k_zero, k_other = uni.spec_plus.eigenvalues[1:L], uni.spec_minus.eigenvalues[:L - 1]
    assert_allclose(levels.k[1:], 0.5 * (k_zero + k_other), rtol=1e-15)
    assert np.all(np.abs(k_zero - k_other) / k_zero < 1e-6)


def test_level_columns_quadrature_orthonormal(uni):
    h = uni.grid.h
    for n in range(1, len(uni.levels)):
        Ep = uni.levels.Ep(n)
        assert_allclose(h * (Ep.T @ Ep), np.eye(2), atol=1e-10)


def test_sigma_order_is_enforced(uni):
    with pytest.raises(ArgumentError):
        assemble_levels(uni.spec_minus, uni.spec_plus, 1, 0.0, uni.ops)
    shifted = GridOperators(uni.rep, uni.profile, 0.5, 1.0, uni.grid)
    with pytest.raises(ArgumentError):       # operators built at another p_y
        assemble_levels(uni.spec_plus, uni.spec_minus, 1, 0.0, shifted)


def test_pairing_mismatch_detected(uni):
    vals = uni.spec_minus.eigenvalues.copy()
    vals[0] *= 1.01
    doctored = dataclasses.replace(uni.spec_minus, eigenvalues=vals)
    with pytest.raises(PairingError):
        assemble_levels(uni.spec_plus, doctored, 1, 0.0, uni.ops)


def test_truncation_when_level_not_stored(uni):
    with pytest.raises(TruncationError):
        assemble_levels(uni.spec_plus, uni.spec_minus, 40, 0.0, uni.ops)


def test_orthonormality_blocks_are_projectors(uni):
    G = orthonormality_matrix(uni.levels, uni.ops)
    assert np.abs(G - np.diag(uni.levels.projector)).max() < 1e-9


def test_eigen_relation_residual_small(uni):
    worst = verify_eigen_relation(uni.levels, uni.spec_plus, uni.spec_minus, uni.rep).max()
    assert worst < 5e-6


def test_intertwining_residual_small(uni):
    worst = verify_gpEp(uni.levels, uni.ops).max()
    assert worst < 1e-5


def test_zero_mode_annihilation_small(uni):
    assert zero_mode_annihilation(uni.levels, uni.ops) < 5e-7


def test_residuals_identical_across_reps(uni, uni_second):
    r1 = verify_gpEp(uni.levels, uni.ops)[:4]
    r2 = verify_gpEp(uni_second.levels, uni_second.ops)[:4]
    assert np.abs(r1 - r2).max() < 1e-12


def test_wrong_pbar_is_detected(uni):
    levels = uni.levels
    base = verify_gpEp(levels, uni.ops)
    # pbar is built from (p0, k): relabel k_2 so that pbar_2 = sqrt(k_2) + 0.1
    k = levels.k.copy()
    k[2] = (levels.pbar[2].p2 + 0.1) ** 2
    off = dataclasses.replace(levels, k=k)
    assert off.pbar[2].p0 == levels.pbar[2].p0
    assert off.pbar[2].p2 == pytest.approx(levels.pbar[2].p2 + 0.1)
    res = verify_gpEp(off, uni.ops)
    assert res[2] > 100 * base[2]
    assert np.array_equal(np.delete(res, 2), np.delete(base, 2))


def test_projector_is_populated_columns(uni, uni_second):
    for levels in (uni.levels, uni_second.levels):
        P = levels.projector
        populated = [float(np.any(levels.E[:, c] != 0.0)) for c in range(levels.E.shape[1])]
        assert np.array_equal(P, populated)
        assert np.array_equal(levels.E * P, levels.E)
        assert P[1 - levels.zero_slot] == 0.0
    # the second representation hosts the zero mode on the other slot
    assert np.array_equal(uni_second.levels.projector[:2], [0.0, 1.0])


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(sign=st.sampled_from([1.0, -1.0]), e=st.sampled_from([1.0, -2.0]),
       p_y=st.floats(-1.0, 1.0), variant=st.sampled_from(["first", "second"]),
       alpha=st.sampled_from([None, 0.1, -0.1]), N=st.sampled_from([640, 768, 1024]))
def test_partner_sign_and_intertwining_across_parameters(sign, e, p_y, variant, alpha, N):
    # alpha None draws the uniform field, otherwise the exponential one; past
    # the levels, the same draw checks the eigen relation and the field FW
    # operator's invariants
    profile = uniform_profile(sign) if alpha is None else exponential_profile(sign, alpha)
    prob = Problem(profile, make_rep(variant), p_y=p_y, e=e, m=1.0, p0=0.3, n_max=8,
                   grid_config=GridConfig(n_points=N), tol_eig=1e-6)
    ops, h = prob.ops, prob.grid.h
    # the ladder A = D1 + diag(M) maps the zero channel's level n onto the
    # partner's level n - 1 as A^T (zero channel sigma = +1) or A (sigma = -1)
    A = ops.D1.copy()
    A[2] = ops.M  # D1's band has an empty diagonal
    slots, levels = channel_slots(prob.rep), prob.levels
    zc = levels.zero_channel
    a, b = slots[zc], slots[-zc]
    assert levels.zero_slot == a
    for n in range(1, len(levels)):
        u, v = levels.Ep(n)[a * N:(a + 1) * N, a], levels.Ep(n)[b * N:(b + 1) * N, b]
        # v A^T u is u A v
        overlap = u @ band_product(A, v) if zc > 0 else v @ band_product(A, u)
        assert h * float(overlap) > 0
    assert verify_gpEp(prob.levels, ops).max() < 1e-5

    # Pi-tilde^2 assembled here: blockdiag of the channel Hamiltonians, by slot
    blocks = [None, None]
    for sigma, V in zip((+1, -1), susy_partner_potentials(profile, p_y, e)):
        blocks[slots[sigma]] = channel_hamiltonian(V(prob.grid.x), h)
    residuals = verify_eigen_relation(prob.levels, prob.spec_plus, prob.spec_minus, prob.rep)
    for n, (k, res) in enumerate(zip(levels.k.tolist(), residuals)):
        Ep, p0, p2 = levels.Ep(n), levels.p0, math.sqrt(max(k, 0.0))
        pi_tilde2_Ep = np.zeros(Ep.shape)
        for s, H in enumerate(blocks):
            band_product(H, Ep[s * N:(s + 1) * N], out=pi_tilde2_Ep[s * N:(s + 1) * N],
                         symmetric=True)
        diff = (p0**2 * Ep - pi_tilde2_Ep) - (p0**2 - p2**2) * Ep
        ref = ((np.sqrt(h) * float(np.linalg.norm(diff)))
               / (np.sqrt(h) * float(np.linalg.norm(Ep))))
        assert res == ref and res < 1e-5

    try:
        fw = prob.fw
    except DiscretizationError:
        # the documented refusal: the solver kept a negative zero mode
        assert levels.k[0] < 0
        return
    E, populated = levels.E, np.flatnonzero(levels.projector)
    grading = np.where(populated % 2, -1.0, 1.0)
    for m in (1.0, 4.0):
        H_r = h * (E.T @ (ops.g0diag[:, None] * (ops.X @ E)))[np.ix_(populated, populated)]
        H_r += m * np.diag(grading)
        assert np.array_equal(restricted_hamiltonian(fw, m)[0], 0.5 * (H_r + H_r.T))
    main = verify_main_claim(fw, fw.levels)
    assert main.max() < 1e-5

    # U applied as the low-rank update, and both residuals from a fresh
    # factorization of the Gram matrix: unitarity bit for bit, and the
    # commutators' rank-4 norms against the 2L x 2L ones
    D = fw.W - np.eye(fw.W.shape[0])
    V = np.random.default_rng(N).standard_normal((2 * N, 3))
    for vec in (V, V[:, 0]):
        assert np.array_equal(fw.apply(vec), vec + E @ (D @ (h * (E.T @ vec))))
    G = h * (E.T @ E)
    G[1 - levels.zero_slot, 1 - levels.zero_slot] = 1.0     # the empty column's 0
    R = np.linalg.cholesky(G).T
    unit = float(np.linalg.norm(R @ (D + D.T + D.T @ G @ D) @ R.T, 2))
    proj = 0.0
    for n in range(len(levels)):
        sel = np.zeros(G.shape[0])
        sel[2 * n:2 * n + 2] = 1.0
        C = (D @ G) * sel[None, :] - sel[:, None] * (G @ D)
        proj = max(proj, float(np.linalg.norm(R @ C @ R.T, 2)))
    assert unitarity_residual(fw) == unit < 1e-10
    assert abs(projector_commutation_residual(fw) - proj) < 1e-14 and proj < 1e-10
    other = prob.other_rep().fw
    assert np.abs(main - verify_main_claim(other, other.levels)).max() < 1e-8


def test_completeness_improves_with_levels(uni):
    N = uni.grid.n_points
    x = uni.grid.x
    bump = np.exp(-0.5 * (x - 0.4) ** 2)
    test_vec = np.zeros(2 * N, dtype=complex)
    test_vec[:N] = bump
    test_vec[N:] = 0.3 * np.roll(bump, 5)
    test_vec /= np.sqrt(uni.grid.h) * np.linalg.norm(test_vec)
    levels = uni.levels
    residuals = [completeness_residual(
                     dataclasses.replace(levels, E=levels.E[:, :2 * j], k=levels.k[:j]),
                     test_vec, uni.ops)
                 for j in (1, 3, len(levels))]
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[2] < 0.05


def test_completeness_validation(uni):
    with pytest.raises(ArgumentError):
        completeness_residual(uni.levels, np.zeros(2 * uni.grid.n_points), uni.ops)
    # no level at all, or E and k of different lengths, is no record of levels
    levels = uni.levels
    for E, k in ((levels.E[:, :0], levels.k[:0]), (levels.E[:, :4], levels.k[:3])):
        with pytest.raises(ArgumentError, match="two columns of E per level"):
            dataclasses.replace(levels, E=E, k=k)


def test_levels_csv(tmp_path, uni):
    path = tmp_path / "levels.csv"
    export_levels_csv(uni.levels, 1.0, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,k,p0,py,E_D"
    assert len(lines) == 1 + len(uni.levels)
    row = lines[2].split(",")
    assert int(row[0]) == 1
    assert float(row[1]) == pytest.approx(uni.levels.k[1], rel=1e-11)
    assert (float(row[2]), float(row[3])) == (uni.p0, uni.p_y)
    assert float(row[4]) == pytest.approx(np.sqrt(uni.levels.k[1] + 1.0))


def test_gauge_center_shift_preserves_levels(uni):
    # p_y shifts the magnetic center; spectra and residuals are unchanged
    prob = dataclasses.replace(uni, p_y=1.2, n_max=3, grid_config=GridConfig(n_points=512))
    assert prob.levels.k[2] == pytest.approx(4.0, abs=1e-5)
    assert verify_gpEp(prob.levels, prob.ops)[2] < 1e-5
    peak = prob.grid.x[np.argmax(np.abs(prob.spec_plus.eigenfunctions[:, 0]))]
    assert abs(peak - 1.2) < 0.1
