"""Channel eigensolver against analytic Landau levels and a Morse-type chain."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ritusfw import field_profiles, spectral_grid
from ritusfw.clifford import make_rep
from ritusfw.errors import (ArgumentError, ConfigurationError,
                            DiscretizationError, TruncationError)
from ritusfw.field_profiles import (exponential_profile, tabulated_profile,
                                    uniform_profile)
from ritusfw.problem import Problem
from ritusfw.ritus_basis import verify_gpEp
from ritusfw.spectral_grid import (PHASE_THRESHOLD, Grid, GridConfig, build_grid,
                                   convergence_study, export_spectrum_csv,
                                   solve_channel)


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        Grid(x_min=-1.0, x_max=1.0, n_points=32)
    g = Grid(x_min=-1.0, x_max=1.0, n_points=101)
    assert g.h == pytest.approx(0.02)
    assert g.x[0] == -1.0 and g.x[-1] == 1.0
    assert g.same_as(Grid(-1.0, 1.0, 101))
    assert not g.same_as(Grid(-1.0, 1.0, 102))


def test_build_grid_requires_levels():
    with pytest.raises(ConfigurationError):
        build_grid(uniform_profile(1.0), 0.0, 0)


def test_build_grid_centers_on_py_over_eB():
    grid = build_grid(uniform_profile(1.0), 0.8, 3, GridConfig(n_points=256))
    center = 0.5 * (grid.x_min + grid.x_max)
    assert abs(center - 0.8) < 0.05


def test_build_grid_widens_with_levels():
    g4 = build_grid(uniform_profile(1.0), 0.0, 4, GridConfig(n_points=256))
    g8 = build_grid(uniform_profile(1.0), 0.0, 8, GridConfig(n_points=256))
    assert g8.x_max - g8.x_min > g4.x_max - g4.x_min


TABLE_X = np.linspace(-8.0, 8.0, 161)


@pytest.mark.parametrize("profile,p_y,n_max", [
    (uniform_profile(1.0), 0.0, 8),
    (uniform_profile(-2.5), 0.8, 3),
    (exponential_profile(1.0, 0.05), 0.0, 8),
    (exponential_profile(-1.0, 0.1), 0.9, 3),
    (tabulated_profile(TABLE_X, TABLE_X), 0.5, 6),
])
def test_build_grid_samples_the_potential_in_few_calls(monkeypatch, profile, p_y, n_max):
    # the domain walks sample the lattice in doubling chunks, not point by point,
    # and both channels come from one (W, W') per point set
    calls = []
    evaluate = field_profiles.evaluate_potential

    def counting(prof, x):
        calls.append(np.array(x, dtype=float))
        return evaluate(prof, x)

    monkeypatch.setattr(field_profiles, "evaluate_potential", counting)
    monkeypatch.setattr(spectral_grid, "evaluate_potential", counting)
    build_grid(profile, p_y, n_max, GridConfig(n_points=256))
    assert len(calls) <= 32
    assert not any(np.array_equal(a, b) for a, b in zip(calls, calls[1:]))


@pytest.mark.parametrize("L", [8.0, 12.0, 20.0])
def test_tabulated_walls_reach_the_wkb_target(L):
    # W = x tabulated on [-L, L]: the walls sit where the uniform field's
    # WKB walls do, inside the table, and the top level intertwines
    xs = np.linspace(-L, L, int(20 * L) + 1)
    prob = Problem(tabulated_profile(xs, xs), make_rep("first"), p_y=0.0, e=1.0, m=1.0,
                   p0=0.3, n_max=8, grid_config=GridConfig(n_points=1024), tol_eig=1e-6)
    uniform = build_grid(uniform_profile(1.0), 0.0, 8, GridConfig(n_points=1024))
    assert -L <= prob.grid.x_min and prob.grid.x_max <= L
    assert prob.grid.x_max == pytest.approx(uniform.x_max, abs=0.01)
    assert verify_gpEp(prob.levels, prob.ops).max() < 1e-5


def test_table_ending_before_the_wkb_target_is_a_truncation_error():
    xs = np.linspace(-5.0, 5.0, 101)
    with pytest.raises(TruncationError, match=r"the table ends at x = -?5, where the WKB "
                                              r"decay .* reaches 0\.55"):
        build_grid(tabulated_profile(xs, xs), 0.0, 8, GridConfig(n_points=1024))


@pytest.mark.parametrize("sigma,offset", [(+1, 0), (-1, 2)])
def test_uniform_landau_levels(uni, sigma, offset):
    spec = uni.spec_plus if sigma > 0 else uni.spec_minus
    for n, k in enumerate(spec.eigenvalues):
        assert abs(k - (2 * n + offset)) < 1e-5


def test_zero_mode_clamped_to_exact_zero(uni):
    assert uni.spec_plus.eigenvalues[0] == 0.0
    assert uni.spec_plus.flags == ()


@pytest.mark.parametrize("raw,clamped,flagged", [
    (3e-12, True, False),    # inside the rounding bound (3.6e-11 at N=640): a zero mode
    (-3e-12, True, False),
    (-5e-9, True, False),    # inside the negative truncation window
    (2e-9, False, True),     # above the bound, within tol_eig: kept and flagged
    (-2e-8, False, True),
])
def test_zero_mode_rounding_clamp(uni, monkeypatch, raw, clamped, flagged):
    real_lanczos = spectral_grid._shift_invert_lanczos

    def shifted(*args, **kwargs):
        vals, vecs = real_lanczos(*args, **kwargs)
        vals[np.argmin(vals)] = raw
        return vals, vecs

    monkeypatch.setattr(spectral_grid, "_shift_invert_lanczos", shifted)
    spec = solve_channel(uni.profile, 0.0, 1.0, +1, uni.grid, 4)
    assert spec.eigenvalues[0] == (0.0 if clamped else raw)
    assert bool(spec.flags) == flagged


def test_quadrature_norms_and_sturm_counts(uni):
    phi = uni.spec_plus.eigenfunctions
    assert_allclose(uni.grid.h * np.sum(phi**2, axis=0), 1.0, atol=1e-10)
    for n in range(5):
        assert uni.spec_plus.sign_changes(n) == n


def test_phase_convention_positive_peak(uni):
    # positive at the first sample from the left above PHASE_THRESHOLD of the
    # peak: a tail sample, not one of the tied mirror peaks of an odd state
    for spec in (uni.spec_plus, uni.spec_minus):
        for phi in spec.eigenfunctions.T:
            mag = np.abs(phi)
            first = np.flatnonzero(mag > PHASE_THRESHOLD * mag.max())[0]
            assert phi[first] > 0
            assert mag[first] < 0.01 * mag.max()


def test_eigenvalues_independent_of_py(uni):
    prof = uniform_profile(1.0)
    grid = build_grid(prof, 0.9, 4, GridConfig(n_points=512))
    spec = solve_channel(prof, 0.9, 1.0, +1, grid, n_levels=5)
    assert_allclose(spec.eigenvalues, uni.spec_plus.eigenvalues[:5], atol=1e-5)


def test_morse_chain_for_exponential_profile():
    # closed form for W = B(e^{ax}-1)/a: k_n = 2nB - n^2 a^2, partner
    # channel shifted by one (shape invariance)
    B, a = 1.0, 0.1
    prof = exponential_profile(B, a)
    grid = build_grid(prof, 0.0, 5, GridConfig(n_points=768))
    sp = solve_channel(prof, 0.0, 1.0, +1, grid, n_levels=5)
    sm = solve_channel(prof, 0.0, 1.0, -1, grid, n_levels=5)
    for n, k in enumerate(sp.eigenvalues):
        assert abs(k - (2 * n * B - n * n * a * a)) < 1e-6
    for j, k in enumerate(sm.eigenvalues):
        m = j + 1
        assert abs(k - (2 * m * B - m * m * a * a)) < 1e-6


def test_solver_argument_validation(uni):
    prof, grid = uni.profile, uni.grid
    with pytest.raises(ArgumentError):
        solve_channel(prof, 0.0, 1.0, 0, grid, n_levels=3)
    with pytest.raises(ArgumentError):
        solve_channel(prof, 0.0, 1.0, +1, grid, n_levels=0)
    with pytest.raises(TruncationError):
        solve_channel(prof, 0.0, 1.0, +1, grid, n_levels=grid.n_points // 2)


def test_unresolvable_levels_hit_the_wall():
    prof = uniform_profile(1.0)
    grid = build_grid(prof, 0.0, 1, GridConfig(n_points=128))
    with pytest.raises(TruncationError):
        solve_channel(prof, 0.0, 1.0, +1, grid, n_levels=30)


def test_tiny_tolerance_rejects_coarse_zero_mode():
    # at N=128 the raw zero-mode eigenvalue is slightly negative; an
    # unrealistically tight tol_eig must turn that into a hard error
    prof = uniform_profile(1.0)
    grid = build_grid(prof, 0.0, 2, GridConfig(n_points=128))
    with pytest.raises(DiscretizationError):
        solve_channel(prof, 0.0, 1.0, +1, grid, n_levels=3, tol_eig=1e-14)


def test_convergence_study_uniform_order_four():
    st = convergence_study(uniform_profile(1.0), 0.0, 1.0, +1, 2,
                           [128, 256, 512])
    assert st["reference_source"] == "analytic"
    assert st["reference"] == pytest.approx(4.0, abs=1e-9)
    assert 3.5 < st["order"] < 4.5
    errors = [row["error"] for row in st["rows"]]
    assert errors == sorted(errors, reverse=True)


def test_convergence_study_richardson_for_exponential():
    st = convergence_study(exponential_profile(1.0, 0.1), 0.0, 1.0, +1, 2,
                           [128, 256, 512])
    assert st["reference_source"] == "richardson"
    assert st["reference"] == pytest.approx(2 * 2 * 1.0 - 4 * 0.01, abs=1e-6)
    assert 3.5 < st["order"] < 4.5


def test_convergence_study_validation():
    prof = uniform_profile(1.0)
    with pytest.raises(ArgumentError):
        convergence_study(prof, 0.0, 1.0, +1, 2, [256])
    with pytest.raises(ArgumentError):
        convergence_study(prof, 0.0, 1.0, +1, 2, [512, 256])


def test_spectrum_csv_round_trip(tmp_path, uni):
    path = tmp_path / "spec.csv"
    export_spectrum_csv([uni.spec_plus, uni.spec_minus], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sigma,n,k"
    assert len(lines) == 1 + 2 * (uni.spec_plus.eigenvalues.size)
    sigma, n, k = lines[1].split(",")
    assert (sigma, n) == ("1", "0")
    assert float(k) == uni.spec_plus.eigenvalues[0]

