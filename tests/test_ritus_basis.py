"""Level assembly, orthonormality, intertwining, completeness, exports."""

import dataclasses
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ritusfw.errors import ArgumentError, PairingError, TruncationError
from ritusfw.operators import GridOperators
from ritusfw.ritus_basis import (BarMomentum, assemble_level, bar_momentum,
                                 completeness_residual, export_levels_csv,
                                 on_shell_level,
                                 orthonormality_matrix, verify_eigen_relation,
                                 verify_gpEp, zero_mode_annihilation)


def test_bar_momentum_on_shell():
    pb = bar_momentum(3.0, 2.0)
    assert pb.E_D == pytest.approx(np.sqrt(7.0))
    assert pb.p0 == pb.E_D and pb.p1 == 0.0
    assert pb.p2 == pytest.approx(np.sqrt(3.0))
    assert pb.squared == pytest.approx(4.0)          # = m^2 on shell
    assert bar_momentum(3.0, 2.0, branch=-1).p0 == -pb.E_D


def test_bar_momentum_validation():
    with pytest.raises(ArgumentError):
        bar_momentum(-1.0, 1.0)
    with pytest.raises(ArgumentError):
        bar_momentum(1.0, 0.0)
    with pytest.raises(ArgumentError):
        bar_momentum(1.0, 1.0, branch=2)


def test_zero_level_structure(uni):
    lv = uni.levels[0]
    assert lv.n == 0 and lv.zero_channel == +1
    assert np.array_equal(lv.projector.matrix, np.diag([1.0, 0.0]))
    # single populated column on slot 0, nothing anywhere else
    N = uni.grid.n_points
    assert np.all(lv.Ep[N:, :] == 0.0)
    assert np.all(lv.Ep[:, 1] == 0.0)
    assert lv.k == 0.0


def test_higher_levels_pair_channels(uni):
    for n in range(1, len(uni.levels)):
        lv = uni.levels[n]
        assert np.array_equal(lv.projector.matrix, np.eye(2))
        k_zero, k_other = lv.channel_eigenvalues
        assert lv.k == pytest.approx(0.5 * (k_zero + k_other))
        assert abs(k_zero - k_other) / k_zero < 1e-6


def test_level_columns_quadrature_orthonormal(uni):
    h = uni.grid.h
    for lv in uni.levels[1:]:
        G = h * (lv.Ep.T @ lv.Ep)
        assert_allclose(G, np.eye(2), atol=1e-10)


def test_sigma_order_is_enforced(uni):
    with pytest.raises(ArgumentError):
        assemble_level(uni.spec_minus, uni.spec_plus, 1, 0.0, uni.ops)
    shifted = GridOperators(uni.rep, uni.profile, 0.5, 1.0, uni.grid)
    with pytest.raises(ArgumentError):       # operators built at another p_y
        assemble_level(uni.spec_plus, uni.spec_minus, 1, 0.0, shifted)


def test_pairing_mismatch_detected(uni):
    vals = uni.spec_minus.eigenvalues.copy()
    vals[0] *= 1.01
    doctored = dataclasses.replace(uni.spec_minus, eigenvalues=vals)
    with pytest.raises(PairingError):
        assemble_level(uni.spec_plus, doctored, 1, 0.0, uni.ops)


def test_truncation_when_level_not_stored(uni):
    with pytest.raises(TruncationError):
        assemble_level(uni.spec_plus, uni.spec_minus, 40, 0.0, uni.ops)


def test_orthonormality_blocks_are_projectors(uni):
    G = orthonormality_matrix(uni.levels, uni.ops)
    expected = np.zeros_like(G)
    for i, lv in enumerate(uni.levels):
        expected[2 * i:2 * i + 2, 2 * i:2 * i + 2] = lv.projector.matrix
    assert np.abs(G - expected).max() < 1e-9


def test_duplicate_levels_warn(uni):
    with pytest.warns(UserWarning):
        orthonormality_matrix([uni.levels[1], uni.levels[1]], uni.ops)


def test_eigen_relation_residual_small(uni):
    worst = max(verify_eigen_relation(lv, uni.ops) for lv in uni.levels)
    assert worst < 5e-6


def test_intertwining_residual_small(uni):
    worst = max(verify_gpEp(lv, uni.ops) for lv in uni.levels)
    assert worst < 1e-5


def test_zero_mode_annihilation_small(uni):
    assert zero_mode_annihilation(uni.levels[0], uni.ops) < 5e-7


def test_residuals_identical_across_reps(uni, uni_second):
    for lv1, lv2 in zip(uni.levels[:4], uni_second.levels[:4]):
        r1 = verify_gpEp(lv1, uni.ops)
        r2 = verify_gpEp(lv2, uni_second.ops)
        assert abs(r1 - r2) < 1e-12


def test_wrong_pbar_is_detected(uni):
    lv = uni.levels[2]
    base = verify_gpEp(lv, uni.ops)
    off = dataclasses.replace(
        lv, pbar=BarMomentum(p0=lv.pbar.p0, p1=0.0,
                             p2=lv.pbar.p2 + 0.1, E_D=lv.pbar.E_D))
    assert verify_gpEp(off, uni.ops) > 100 * base


def test_on_shell_level(uni):
    lv = on_shell_level(uni.levels[3], m=1.0)
    assert lv.p0 == pytest.approx(np.sqrt(lv.k + 1.0))
    assert lv.pbar.squared - 1.0 == pytest.approx(0.0, abs=1e-12)
    down = on_shell_level(uni.levels[3], m=1.0, branch=-1)
    assert down.p0 == -lv.p0


def test_completeness_improves_with_levels(uni):
    N = uni.grid.n_points
    x = uni.grid.x
    bump = np.exp(-0.5 * (x - 0.4) ** 2)
    test_vec = np.zeros(2 * N, dtype=complex)
    test_vec[:N] = bump
    test_vec[N:] = 0.3 * np.roll(bump, 5)
    test_vec /= np.sqrt(uni.grid.h) * np.linalg.norm(test_vec)
    residuals = [completeness_residual(uni.levels[:j], test_vec, uni.ops)
                 for j in (1, 3, len(uni.levels))]
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[2] < 0.05


def test_completeness_validation(uni):
    with pytest.raises(ArgumentError):
        completeness_residual(uni.levels, np.zeros(2 * uni.grid.n_points), uni.ops)
    full = completeness_residual([], np.ones(2 * uni.grid.n_points), uni.ops)
    assert full == 1.0


def test_levels_csv(tmp_path, uni):
    path = tmp_path / "levels.csv"
    export_levels_csv(uni.levels, 1.0, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,k,p0,py,E_D"
    assert len(lines) == 1 + len(uni.levels)
    row = lines[2].split(",")
    assert int(row[0]) == 1
    assert float(row[4]) == pytest.approx(np.sqrt(uni.levels[1].k + 1.0))


def test_gauge_center_shift_preserves_levels(uni):
    # p_y shifts the magnetic center; spectra and residuals are unchanged
    from ritusfw.spectral_grid import GridConfig

    prob = dataclasses.replace(uni, p_y=1.2, n_max=3, grid_config=GridConfig(n_points=512))
    lv = prob.levels[2]
    assert lv.k == pytest.approx(4.0, abs=1e-5)
    assert verify_gpEp(lv, prob.ops) < 1e-5
    peak = prob.grid.x[np.argmax(np.abs(prob.spec_plus.eigenfunctions[:, 0]))]
    assert abs(peak - 1.2) < 0.1
