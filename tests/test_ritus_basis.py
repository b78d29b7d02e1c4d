"""Level assembly, orthonormality, intertwining, exports."""

import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ritusfw.cli import RunConfig, run
from ritusfw.clifford import make_rep
from ritusfw.errors import ArgumentError, DiscretizationError, PairingError, TruncationError
from ritusfw.field_profiles import (analytic_levels, channel_potentials, exponential_profile,
                                    uniform_profile)
from ritusfw.foldy_wouthuysen import (field_fw_from_levels, free_fw,
                                      projector_commutation_residual, restricted_hamiltonian,
                                      unitarity_residual, verify_main_claim)
from ritusfw.operators import (GridOperators, band_product, channel_hamiltonian, channel_slots,
                               first_derivative)
from ritusfw.problem import Problem
from ritusfw.ritus_basis import (RitusLevels, assemble_levels, verify_eigen_relation,
                                 verify_gpEp, zero_mode_annihilation)

from bands import Ep, dense_E, dense_spinor, g0_diagonal


def test_zero_level_structure(uni):
    levels = uni.levels
    # the zero mode lives in sigma = +1, which the first representation places on slot 0
    assert levels.zero_slot == channel_slots(uni.rep)[+1] == 0
    assert np.array_equal(levels.projector[:2], [1.0, 0.0])
    # single populated column on slot 0, nothing anywhere else
    N, E0 = uni.grid.n_points, Ep(levels, 0)
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
        E_p = Ep(uni.levels, n)
        assert_allclose(h * (E_p.T @ E_p), np.eye(2), atol=1e-10)


def test_levels_carry_their_operators(uni, uni_second):
    # every check over the levels reads the operators they were built with
    assert uni.levels.ops is uni.ops
    assert uni_second.rep.variant == "second"
    assert uni_second.levels.ops is uni_second.ops


def test_sigma_order_is_enforced(uni):
    with pytest.raises(ArgumentError):
        assemble_levels(uni.spec_minus, uni.spec_plus, 1, uni.ops)
    # operators built at another p_y: the levels assemble, and the
    # intertwining check refuses them (0.5 where the run's own read 2.7e-6)
    shifted = GridOperators(uni.rep, uni.profile, 0.5, 1.0, uni.grid)
    levels = assemble_levels(uni.spec_plus, uni.spec_minus, uni.n_max, shifted)
    assert verify_gpEp(levels).min() > 0.1
    assert verify_gpEp(uni.levels).max() < 1e-5


def test_pairing_mismatch_detected(uni):
    vals = uni.spec_minus.eigenvalues.copy()
    vals[0] *= 1.01
    doctored = dataclasses.replace(uni.spec_minus, eigenvalues=vals)
    with pytest.raises(PairingError):
        assemble_levels(uni.spec_plus, doctored, 1, uni.ops)


def test_truncation_when_level_not_stored(uni):
    with pytest.raises(TruncationError):
        assemble_levels(uni.spec_plus, uni.spec_minus, 40, uni.ops)


def test_orthonormality_blocks_are_projectors(uni):
    G = uni.levels.gram
    assert np.abs(G - np.diag(uni.levels.projector)).max() < 1e-9


def test_eigen_relation_residual_small(uni):
    worst = verify_eigen_relation(uni.levels).max()
    assert worst < 5e-6


def test_intertwining_residual_small(uni):
    worst = verify_gpEp(uni.levels).max()
    assert worst < 1e-5


def test_zero_mode_annihilation_small(uni):
    assert zero_mode_annihilation(uni.levels) < 5e-7


def test_residuals_identical_across_reps(uni, uni_second):
    r1 = verify_gpEp(uni.levels)[:4]
    r2 = verify_gpEp(uni_second.levels)[:4]
    assert np.abs(r1 - r2).max() < 1e-12


def test_wrong_pbar_is_detected(uni):
    levels = uni.levels
    base = verify_gpEp(levels)
    # pbar_2 is built from k: relabel k_2 so that pbar_2 = sqrt(k_2) + 0.1
    k = levels.k.copy()
    k[2] = (levels.p2[2] + 0.1) ** 2
    off = dataclasses.replace(levels, k=k)
    assert off.p2[2] == pytest.approx(levels.p2[2] + 0.1)
    assert np.array_equal(np.delete(off.p2, 2), np.delete(levels.p2, 2))
    res = verify_gpEp(off)
    assert res[2] > 100 * base[2]
    assert np.array_equal(np.delete(res, 2), np.delete(base, 2))


def test_projector_is_populated_columns(uni, uni_second):
    for levels in (uni.levels, uni_second.levels):
        P, E = levels.projector, dense_E(levels)
        populated = [float(np.any(E[:, c] != 0.0)) for c in range(E.shape[1])]
        assert np.array_equal(P, populated)
        assert np.array_equal(E * P, E)
        assert P[1 - levels.zero_slot] == 0.0
    # the second representation hosts the zero mode on the other slot
    assert np.array_equal(uni_second.levels.projector[:2], [0.0, 1.0])


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(sign=st.sampled_from([1.0, -1.0]), e=st.sampled_from([1.0, -2.0]),
       p_y=st.floats(-1.0, 1.0), variant=st.sampled_from(["first", "second"]),
       alpha=st.sampled_from([None, 0.1, -0.1]), N=st.sampled_from([640, 768, 1024]))
def test_partner_sign_and_intertwining_across_parameters(sign, e, p_y, variant, alpha, N):
    # alpha None draws the uniform field, otherwise the exponential one; past
    # the levels, the same draw checks the closed-form spectra, the eigen
    # relation and the field FW operator's invariants
    profile = uniform_profile(sign) if alpha is None else exponential_profile(sign, alpha)
    prob = Problem(profile, make_rep(variant), p_y=p_y, e=e, n_max=8,
                   n_points=N, tol_eig=1e-6)
    for spec in (prob.spec_plus, prob.spec_minus):
        for n, k in enumerate(spec.eigenvalues.tolist()):
            exact = analytic_levels(profile, e, p_y, n, spec.sigma)
            assert abs(k - exact) <= 1e-6 * max(1.0, k), (spec.sigma, n, k, exact)
    ops, h = prob.ops, prob.grid.h
    # the ladder A = D1 + diag(M) maps the zero channel's level n onto the
    # partner's level n - 1 as A^T (zero channel sigma = +1) or A (sigma = -1)
    A = first_derivative(N, h)
    A[2] = ops.M  # D1's band has an empty diagonal
    slots, levels = channel_slots(prob.rep), prob.levels
    # the zero channel is the one on the zero slot, and it hosts the lowest eigenvalue
    zc = +1 if slots[+1] == levels.zero_slot else -1
    a, b = slots[zc], slots[-zc]
    spec = {+1: prob.spec_plus, -1: prob.spec_minus}
    assert spec[zc].eigenvalues[0] <= spec[-zc].eigenvalues[0]
    for n in range(1, len(levels)):
        u, v = levels.F[a][:, n], levels.F[b][:, n]
        # v A^T u is u A v
        overlap = u @ band_product(A, v) if zc > 0 else v @ band_product(A, u)
        assert h * float(overlap) > 0
    assert verify_gpEp(prob.levels).max() < 1e-5

    # Pi-tilde^2 assembled here: blockdiag of the channel Hamiltonians, by slot
    blocks = [None, None]
    for sigma, V in zip((+1, -1), channel_potentials(profile, p_y, e, prob.grid.x)[1:]):
        blocks[slots[sigma]] = channel_hamiltonian(V, h)
    residuals = verify_eigen_relation(prob.levels)
    for n, (k, res) in enumerate(zip(levels.k.tolist(), residuals)):
        E_p = Ep(levels, n)
        pi_tilde2_Ep = np.concatenate([band_product(H, E_p[s * N:(s + 1) * N])
                                       for s, H in enumerate(blocks)])
        diff = pi_tilde2_Ep - max(k, 0.0) * E_p
        ref = np.linalg.norm(diff) / np.linalg.norm(E_p)
        assert abs(res - ref) <= 1e-14 * ref and res < 1e-5

    try:
        fw = field_fw_from_levels(levels, 1.0)
    except DiscretizationError:
        # the documented refusal: the solver kept a negative zero mode
        assert levels.k[0] < 0
        return
    E, populated = dense_E(levels), np.flatnonzero(levels.projector)
    grading = np.where(populated % 2, -1.0, 1.0)
    XE = dense_spinor(ops.X) @ E
    for m in (1.0, 4.0):
        H_r = h * (E.T @ (g0_diagonal(ops)[:, None] * XE))[np.ix_(populated, populated)]
        H_r += m * np.diag(grading)
        # K comes from the per-slot products, the reference from the dense E:
        # the two sum in different orders
        H_r = 0.5 * (H_r + H_r.T)
        H_lv = restricted_hamiltonian(levels, m)[0]
        assert np.abs(H_lv - H_r).max() <= 1e-14 * np.abs(H_r).max()
    main = verify_main_claim(fw)
    assert main.max() < 1e-5

    # U applied on the grid as the low-rank update V + E (D (h E^T V)): it
    # keeps the norm of grid vectors, and its main-claim residuals agree with
    # the 2L x 2L ones; both other residuals from a fresh factorization of the
    # Gram matrix: unitarity bit for bit, and the commutators' rank-4 norms
    # against the 2L x 2L ones
    D = fw.W - np.eye(fw.W.shape[0])

    def apply_U(vec):
        return vec + E @ (D @ (h * (E.T @ vec)))

    V = np.random.default_rng(N).standard_normal((2 * N, 3))
    for vec in (V, V[:, 0]):
        assert_allclose(np.linalg.norm(apply_U(vec), axis=0), np.linalg.norm(vec, axis=0),
                        rtol=1e-12)
    UE = apply_U(E)
    for n, k in enumerate(levels.k.tolist()):
        E_p = E[:, 2 * n:2 * n + 2]
        U_free = free_fw(k, 1.0, fw.levels.ops.rep).real
        ref = np.linalg.norm(UE[:, 2 * n:2 * n + 2] - E_p @ U_free) / np.linalg.norm(E_p)
        assert abs(main[n] - ref) <= 1e-14 + 1e-6 * ref
    # the levels' Gram matrix is the dense h E^T E, up to the order of its sums
    assert np.abs(levels.gram - h * (E.T @ E)).max() < 1e-14
    G = np.array(levels.gram)
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
    other = field_fw_from_levels(prob.other_rep().levels, 1.0)
    assert np.abs(main - verify_main_claim(other)).max() < 1e-8


def test_completeness_validation(uni):
    # no level at all, or blocks and k of different lengths, is no record of levels
    levels = uni.levels
    for j, k in ((0, levels.k[:0]), (2, levels.k[:3])):
        with pytest.raises(ArgumentError, match="one column per level in each slot block"):
            dataclasses.replace(levels, F=tuple(f[:, :j] for f in levels.F), k=k)


def test_levels_csv(tmp_path):
    # the `verify-ritus` section writes levels.csv next to its report
    cfg = RunConfig(grid_n=256, n_max=3, p_y=0.25)
    report, _ = run("verify-ritus", cfg, outdir=tmp_path)
    levels = report["results"]["levels"]
    lines = (tmp_path / "levels.csv").read_text().strip().splitlines()
    assert lines[0] == "n,k,p0,py,E_D"
    assert len(lines) == 1 + len(levels) == 1 + cfg.n_max + 1
    row = lines[2].split(",")
    assert int(row[0]) == 1
    assert float(row[1]) == pytest.approx(levels[1]["k"], rel=1e-11)
    assert (float(row[2]), float(row[3])) == (cfg.p0, cfg.p_y)
    assert float(row[4]) == pytest.approx(np.sqrt(levels[1]["k"] + 1.0))


def test_levels_do_not_depend_on_p0(tmp_path):
    # the field is static, so p0 is a conserved label: neither the problem nor
    # its levels hold it, verify-ritus reports the same at any p0, and
    # levels.csv differs only in its p0 column
    assert "p0" not in {f.name for f in dataclasses.fields(Problem)}
    assert [f.name for f in dataclasses.fields(RitusLevels)] == ["F", "k", "ops", "zero_slot"]
    reports, tables = [], []
    for p0 in (0.3, 2.5):
        out = tmp_path / repr(p0)
        report, ok = run("verify-ritus", RunConfig(p0=p0), outdir=out)
        assert ok
        reports.append(report)
        with open(out / "levels.csv", newline="") as fh:
            tables.append(list(csv.reader(fh)))
    assert reports[0]["results"] == reports[1]["results"]
    assert reports[0]["checks"] == reports[1]["checks"]
    for table, p0 in zip(tables, ("0.3", "2.5")):
        assert [row[2] for row in table] == ["p0"] + [p0] * (len(table) - 1)
    assert ([row[:2] + row[3:] for row in tables[0]]
            == [row[:2] + row[3:] for row in tables[1]])


def test_gauge_center_shift_preserves_levels(uni):
    # p_y shifts the magnetic center; spectra and residuals are unchanged
    prob = dataclasses.replace(uni, p_y=1.2, n_max=3, n_points=512)
    assert prob.levels.k[2] == pytest.approx(4.0, abs=1e-5)
    assert verify_gpEp(prob.levels)[2] < 1e-5
    peak = prob.grid.x[np.argmax(np.abs(prob.spec_plus.eigenfunctions[:, 0]))]
    assert abs(peak - 1.2) < 0.1
