"""Free and field FW transformations, block diagonalization, series limits."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigvalsh, expm

from ritusfw.clifford import make_rep
from ritusfw.errors import ArgumentError, DiscretizationError
from ritusfw.foldy_wouthuysen import (bd_iteration, field_fw_from_levels, free_fw,
                                      fw_series_hamiltonian,
                                      projector_commutation_residual,
                                      restricted_hamiltonian, theta,
                                      transform_hamiltonian,
                                      unitarity_residual, verify_main_claim)
from ritusfw.operators import channel_slots

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


def test_field_fw_unitary(uni):
    assert unitarity_residual(uni.fw) < 1e-12


def test_field_fw_commutes_with_cluster_projectors(uni):
    assert projector_commutation_residual(uni.fw) < 1e-12


def test_field_fw_identity_on_zero_mode(uni):
    E0 = uni.fw.levels.Ep(0)[:, 0]
    assert np.abs(uni.fw.apply(E0) - E0).max() < 1e-12


def test_field_fw_requires_levels(uni):
    levels = uni.levels
    with pytest.raises(ArgumentError):
        field_fw_from_levels(dataclasses.replace(levels, E=levels.E[:, :0], k=levels.k[:0]),
                             uni.ops, MASS)


def test_field_fw_rejects_negative_k(uni):
    # a zero mode the solver kept negative (flagged) cannot enter theta(k)
    k = uni.levels.k.copy()
    k[0] = -2e-8
    with pytest.raises(DiscretizationError, match="level 0 has k = -2.000e-08 < 0"):
        field_fw_from_levels(dataclasses.replace(uni.levels, k=k), uni.ops, MASS)


def test_field_fw_ignores_the_level_energy(uni):
    # U reads the levels' E and k only: relabeling p0 leaves W unchanged
    for n in (0, 1, len(uni.levels) - 1):
        moved = dataclasses.replace(uni.levels, p0=math.sqrt(uni.levels.k[n] + MASS**2))
        assert np.array_equal(field_fw_from_levels(moved, uni.ops, MASS).W, uni.fw.W)


def populated_W(fw):
    """W on E's populated columns, those restricted_hamiltonian keeps."""
    populated = np.flatnonzero(fw.levels.projector)
    return fw.W[np.ix_(populated, populated)]


def dispersion(fw, grading):
    """+-sqrt(k_n + m^2) on each populated column, signed by its grading."""
    k = np.repeat(fw.levels.k, 2)[fw.levels.projector > 0]
    return np.sort(grading * np.sqrt(k + MASS**2))


def test_restricted_hamiltonian_eigenvalues(uni):
    H_r, grading = restricted_hamiltonian(uni.fw)
    assert H_r.shape == (2 * len(uni.levels) - 1,) * 2
    assert_allclose(np.sort(eigvalsh(H_r)), dispersion(uni.fw, grading), atol=1e-5)


def test_transform_block_diagonalizes(uni):
    H_r, grading = restricted_hamiltonian(uni.fw)
    report = transform_hamiltonian(populated_W(uni.fw), H_r, beta=grading)
    assert report.odd_part_norm < 1e-6 * report.even_part_norm
    # unitary conjugation preserves the spectrum
    assert_allclose(np.sort(report.eigenvalues), np.sort(eigvalsh(H_r)),
                    atol=1e-10)


def test_three_routes_agree(uni):
    # (a) transformed eigenvalues, (b) direct eigenvalues of the restricted
    # Hamiltonian, (c) the dispersion +-sqrt(k_n + m^2)
    H_r, grading = restricted_hamiltonian(uni.fw)
    report = transform_hamiltonian(populated_W(uni.fw), H_r, beta=grading)
    a = np.sort(report.eigenvalues)
    b = np.sort(eigvalsh(H_r))
    c = dispersion(uni.fw, grading)
    assert_allclose(a, b, atol=1e-10)
    assert_allclose(b, c, atol=1e-5)


def test_transform_shape_validation(uni):
    with pytest.raises(ArgumentError):
        transform_hamiltonian(uni.fw.W, np.eye(3), beta=np.ones(3))


def test_main_claim_all_levels(uni):
    worst = verify_main_claim(uni.fw, uni.fw.levels).max()
    assert worst < 5e-6


def test_main_claim_agrees_across_reps(uni, uni_second):
    r1 = verify_main_claim(uni.fw, uni.fw.levels)
    r2 = verify_main_claim(uni_second.fw, uni_second.fw.levels)
    assert np.abs(r1 - r2).max() < 1e-12


def test_column_sign_convention_is_load_bearing(uni):
    # flipping one ladder-aligned column must break the factorization
    levels = uni.fw.levels
    flipped = np.array(levels.E, order="F")
    flipped[:, 2 * 2 + 1] *= -1.0       # level 2's second column
    res = verify_main_claim(uni.fw, dataclasses.replace(levels, E=flipped))
    assert res[2] > 0.1
    assert np.delete(res, 2).max() < 5e-6


# ----------------------------------------------------------------------
# perturbative consistency
# ----------------------------------------------------------------------


def test_bd_iteration_odd_norm_scaling(uni):
    masses = [4.0, 8.0, 16.0]
    odd = []
    for m in masses:
        H_r, grading = restricted_hamiltonian(uni.fw, m)
        step = bd_iteration(H_r, m, steps=1, beta=grading)[0]
        odd.append(step.odd_part_norm)
    slope = np.polyfit(np.log(masses), np.log(odd), 1)[0]
    assert -2.2 < slope < -1.8


def test_bd_iteration_monotone_and_validated(uni):
    H_r, grading = restricted_hamiltonian(uni.fw, 4.0)
    reports = bd_iteration(H_r, 4.0, steps=2, beta=grading)
    assert reports[1].odd_part_norm < reports[0].odd_part_norm
    assert_allclose(np.sort(reports[-1].eigenvalues),
                    np.sort(eigvalsh(H_r)), atol=1e-10)
    with pytest.raises(ArgumentError):
        bd_iteration(H_r, 4.0, steps=0, beta=grading)
    with pytest.raises(ArgumentError):
        bd_iteration(H_r, -1.0, steps=1, beta=grading)


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
