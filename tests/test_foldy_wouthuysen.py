"""Free and field FW transformations, block diagonalization, series limits."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigvalsh, expm

from ritusfw.cli import RunConfig, run
from ritusfw.clifford import make_rep
from ritusfw.errors import ArgumentError, DiscretizationError
from ritusfw.foldy_wouthuysen import (bd_step, field_fw_from_levels, free_fw,
                                      fw_series_hamiltonian, graded_norms,
                                      projector_commutation_residual,
                                      restricted_hamiltonian, theta,
                                      unitarity_residual, verify_main_claim)
from ritusfw.operators import channel_slots

from bands import dense_E

MASS = 1.0


# ----------------------------------------------------------------------
# angle and free transform
# ----------------------------------------------------------------------


def test_theta_zero_momentum_limit():
    assert theta(0.0, 2.0) == pytest.approx(0.25, rel=1e-14)
    assert theta(1e-20, 2.0) == pytest.approx(0.25, rel=1e-10)


@pytest.mark.parametrize("k,m", [(1.0, 1.0), (4.0, 0.5), (0.09, 3.0)])
def test_theta_closed_form(k, m):
    assert 2.0 * math.sqrt(k) * theta(k, m) == pytest.approx(
        math.atan(math.sqrt(k) / m), rel=1e-14)


@pytest.mark.parametrize("variant", ["first", "second"])
@pytest.mark.parametrize("k,m", [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (5.0, 0.7)])
def test_free_fw_diagonalizes_free_hamiltonian(variant, k, m):
    rep = make_rep(variant)
    U = free_fw(k, m, rep)
    assert np.abs(U @ U.conj().T - np.eye(2)).max() < 1e-14
    H = rep.gamma[0] @ (math.sqrt(k) * rep.gamma[2] + m * np.eye(2))
    transformed = U @ H @ U.conj().T
    assert_allclose(transformed, rep.gamma[0] * math.sqrt(k + m * m), atol=1e-13)


def test_free_fw_hand_value():
    # |p| = m = 1: transformed Hamiltonian is gamma^0 sqrt(2)
    rep = make_rep("first")
    H = rep.gamma[0] @ (rep.gamma[2] + np.eye(2))
    U = free_fw(1.0, 1.0, rep)
    assert_allclose(U @ H @ U.conj().T, math.sqrt(2.0) * rep.gamma[0], atol=1e-14)


def test_free_fw_requires_positive_mass():
    for m in (0.0, -1.0):
        with pytest.raises(ArgumentError, match="mass must be positive"):
            free_fw(1.0, m, make_rep("first"))


def test_free_fw_requires_nonnegative_k():
    with pytest.raises(ArgumentError, match="k must be non-negative"):
        free_fw(-1.0, 1.0, make_rep("first"))


# ----------------------------------------------------------------------
# exact field transform
# ----------------------------------------------------------------------


def test_field_fw_unitary(uni_fw):
    assert unitarity_residual(uni_fw) < 1e-12


def test_field_fw_commutes_with_cluster_projectors(uni_fw):
    assert projector_commutation_residual(uni_fw) < 1e-12


def test_field_fw_identity_on_zero_mode(uni_fw):
    # through the dense U = 1 + h E (W - 1) E^T, and through the factors'
    # U E = E (1 + D G), which the main claim reads
    fw = uni_fw
    E, h = dense_E(fw.levels), fw.levels.ops.h
    D, G, _ = fw.factors
    U = np.eye(E.shape[0]) + h * (E @ (fw.W - np.eye(fw.W.shape[0])) @ E.T)
    z = fw.levels.zero_slot                         # E_0's populated column
    assert np.abs(U @ E[:, z] - E[:, z]).max() < 1e-12
    assert np.abs(E @ (np.eye(G.shape[0]) + D @ G)[:, z] - E[:, z]).max() < 1e-12


def test_field_fw_requires_levels(uni):
    levels = uni.levels
    with pytest.raises(ArgumentError):
        field_fw_from_levels(dataclasses.replace(levels, F=tuple(f[:, :0] for f in levels.F),
                                                 k=levels.k[:0]), MASS)


def test_field_fw_rejects_negative_k(uni):
    # a zero mode the solver kept negative (flagged) cannot enter theta(k)
    k = uni.levels.k.copy()
    k[0] = -2e-8
    with pytest.raises(DiscretizationError, match="level 0 has k = -2.000e-08 < 0"):
        field_fw_from_levels(dataclasses.replace(uni.levels, k=k), MASS)


def test_field_fw_ignores_the_level_energy():
    # U reads the levels' E, k and X only, and the levels hold no energy p0:
    # fw-exact reports the same at the default p0 and on level 1's shell
    sections = [run("fw-exact", RunConfig(p0=p0))[0] for p0 in (0.3, math.sqrt(2.0 + MASS**2))]
    assert sections[0]["results"] == sections[1]["results"]
    assert sections[0]["checks"] == sections[1]["checks"]


def transformed(fw, H_r):
    """W H_r W^T, with W on E's populated columns, those restricted_hamiltonian keeps."""
    populated = np.flatnonzero(fw.levels.projector)
    W = fw.W[np.ix_(populated, populated)]
    return W @ H_r @ W.T


def spectrum(T):
    """Eigenvalues of T's symmetric part, ascending."""
    return eigvalsh(0.5 * (T + T.T))


def dispersion(levels, grading):
    """+-sqrt(k_n + m^2) on each populated column, signed by its grading."""
    k = np.repeat(levels.k, 2)[levels.projector > 0]
    return np.sort(grading * np.sqrt(k + MASS**2))


def test_restricted_hamiltonian_eigenvalues(uni):
    H_r, grading = restricted_hamiltonian(uni.levels, MASS)
    assert H_r.shape == (2 * len(uni.levels) - 1,) * 2
    assert_allclose(np.sort(eigvalsh(H_r)), dispersion(uni.levels, grading), atol=1e-5)


def test_graded_norms_hand_value():
    # beta = (1, -1): the diagonal is even, the off-diagonal odd
    even, odd = graded_norms(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, -1.0]))
    assert even == pytest.approx(math.hypot(1.0, 4.0), rel=1e-15)
    assert odd == pytest.approx(math.hypot(2.0, 3.0), rel=1e-15)


def test_transform_block_diagonalizes(uni, uni_fw):
    H_r, grading = restricted_hamiltonian(uni.levels, MASS)
    T = transformed(uni_fw, H_r)
    even, odd = graded_norms(T, grading)
    assert odd < 1e-6 * even
    # unitary conjugation preserves the spectrum
    assert_allclose(spectrum(T), eigvalsh(H_r), atol=1e-10)


def test_three_routes_agree(uni, uni_fw):
    # (a) transformed eigenvalues, (b) direct eigenvalues of the restricted
    # Hamiltonian, (c) the dispersion +-sqrt(k_n + m^2)
    H_r, grading = restricted_hamiltonian(uni.levels, MASS)
    a = spectrum(transformed(uni_fw, H_r))
    b = eigvalsh(H_r)
    c = dispersion(uni.levels, grading)
    assert_allclose(a, b, atol=1e-10)
    assert_allclose(b, c, atol=1e-5)


def test_main_claim_all_levels(uni_fw):
    worst = verify_main_claim(uni_fw).max()
    assert worst < 5e-6


def test_main_claim_agrees_across_reps(uni_fw, uni_second):
    r1 = verify_main_claim(uni_fw)
    r2 = verify_main_claim(field_fw_from_levels(uni_second.levels, MASS))
    assert np.abs(r1 - r2).max() < 1e-12


def test_column_sign_convention_is_load_bearing(uni):
    # flipping one ladder-aligned column must break the factorization
    levels = uni.levels
    flipped = [np.array(f) for f in levels.F]
    flipped[1][:, 2] *= -1.0            # level 2's column on slot 1
    res = verify_main_claim(field_fw_from_levels(dataclasses.replace(levels, F=tuple(flipped)),
                                                 MASS))
    assert res[2] > 0.1
    assert np.delete(res, 2).max() < 5e-6


# ----------------------------------------------------------------------
# perturbative consistency
# ----------------------------------------------------------------------


def test_bd_step_odd_norm_scaling(uni):
    masses = [4.0, 8.0, 16.0]
    odd = []
    for m in masses:
        H_r, grading = restricted_hamiltonian(uni.levels, m)
        odd.append(graded_norms(bd_step(H_r, m, grading), grading)[1])
    slope = np.polyfit(np.log(masses), np.log(odd), 1)[0]
    assert -2.2 < slope < -1.8


def test_bd_step_monotone_and_validated(uni):
    # a second step shrinks the odd part further and keeps the spectrum
    H_r, grading = restricted_hamiltonian(uni.levels, 4.0)
    once = bd_step(H_r, 4.0, grading)
    twice = bd_step(once, 4.0, grading)
    assert graded_norms(twice, grading)[1] < graded_norms(once, grading)[1]
    assert_allclose(spectrum(twice), eigvalsh(H_r), atol=1e-10)
    with pytest.raises(ArgumentError):
        bd_step(H_r, -1.0, grading)


def test_series_values_and_remainder():
    # m + k/2m and m + k/2m - k^2/8m^3 at k=2, m=4
    assert fw_series_hamiltonian(2.0, 4.0, 2) == pytest.approx(4.25, rel=1e-14)
    assert fw_series_hamiltonian(2.0, 4.0, 3) == pytest.approx(
        4.25 - 4.0 / (8 * 64.0), rel=1e-14)
    for m in (4.0, 8.0, 16.0):
        err = abs(fw_series_hamiltonian(2.0, m, 3) - math.sqrt(2.0 + m * m))
        assert err <= 2.0**3 / (16.0 * m**5)
    with pytest.raises(ArgumentError):
        fw_series_hamiltonian(2.0, 4.0, 4)


def test_series_error_scaling():
    masses = [4.0, 8.0, 16.0]
    errs = [abs(fw_series_hamiltonian(2.0, m, 3) - math.sqrt(2.0 + m * m))
            for m in masses]
    slope = np.polyfit(np.log(masses), np.log(errs), 1)[0]
    assert -5.3 < slope < -4.7


# ----------------------------------------------------------------------
# free-field reduction on a periodic ring
# ----------------------------------------------------------------------


def _circulant_first_derivative(N, h):
    D1 = np.zeros((N, N))
    for off, c in ((1, 8 / 12), (2, -1 / 12)):
        for i in range(N):
            D1[i, (i + off) % N] += c / h
            D1[i, (i - off) % N] -= c / h
    return D1


@pytest.mark.parametrize("variant", ["first", "second"])
def test_free_field_reduction_on_ring(variant):
    # With B = 0 the ladder degenerates to the derivative alone and the
    # traveling waves of a periodic ring are exact cluster eigenvectors:
    # the per-cluster rotation must reproduce the free transform verbatim.
    N = 64
    h = 2 * np.pi / N
    x = np.arange(N) * h
    D1 = _circulant_first_derivative(N, h)
    rep = make_rep(variant)
    slots = channel_slots(rep)
    X = (np.kron(rep.gamma[1], -1j * D1)).real

    for mode in (1, 2, 5):
        u = np.exp(1j * mode * x) / np.sqrt(N)
        keff = float(((D1 @ u) / u)[0].imag)
        w = D1.T @ u                        # partner column via the dagger ladder
        v = w / np.linalg.norm(w)
        if (v.conj() @ (D1.T @ u)).real < 0:
            v = -v
        E = np.zeros((2 * N, 2), dtype=complex)
        E[slots[+1] * N:(slots[+1] + 1) * N, slots[+1]] = u
        E[slots[-1] * N:(slots[-1] + 1) * N, slots[-1]] = v

        k = keff * keff
        assert np.abs(X @ E - E @ (math.sqrt(k) * rep.gamma[2])).max() < 1e-12
        Unn = expm(theta(k, MASS) * (E.conj().T @ (X @ E)))
        Ufree = free_fw(k, MASS, rep)
        assert np.abs(Unn - Ufree).max() < 1e-13
