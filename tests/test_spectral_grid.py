"""Channel eigensolver against analytic Landau levels and a Morse-type chain."""

import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bands import channel_solve, sign_changes
from ladder import observed_order
from ritusfw import field_profiles, spectral_grid
from ritusfw.cli import RunConfig, run
from ritusfw.clifford import make_rep
from ritusfw.errors import (ArgumentError, ConfigurationError,
                            DiscretizationError, TruncationError)
from ritusfw.field_profiles import (analytic_levels, evaluate_potential, exponential_profile,
                                    tabulated_profile, uniform_profile)
from ritusfw.problem import Problem
from ritusfw.ritus_basis import verify_gpEp
from ritusfw.spectral_grid import PHASE_THRESHOLD, Domain, Grid, build_grid, solve_channel


def test_grid_validation():
    domain = Domain(x_min=-1.0, x_max=1.0, length=1.0)
    with pytest.raises(ConfigurationError):
        Domain(x_min=1.0, x_max=1.0, length=1.0)
    with pytest.raises(ConfigurationError):
        Grid(domain, n_points=32)
    g = Grid(domain, n_points=101)
    assert g.h == pytest.approx(0.02)
    assert g.x[0] == -1.0 and g.x[-1] == 1.0
    assert g == Grid(Domain(-1.0, 1.0, 1.0), 101)
    assert g != Grid(domain, 102)


def test_build_grid_requires_levels():
    with pytest.raises(ConfigurationError):
        build_grid(uniform_profile(1.0), 0.0, 0)


def test_build_grid_centers_on_py_over_eB():
    domain = build_grid(uniform_profile(1.0), 0.8, 3)
    center = 0.5 * (domain.x_min + domain.x_max)
    assert abs(center - 0.8) < 0.05


def test_build_grid_widens_with_levels():
    g4 = build_grid(uniform_profile(1.0), 0.0, 4)
    g8 = build_grid(uniform_profile(1.0), 0.0, 8)
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
    build_grid(profile, p_y, n_max)
    assert 0 < len(calls) <= 32
    assert not any(np.array_equal(a, b) for a, b in zip(calls, calls[1:]))


@pytest.mark.parametrize("L", [8.0, 12.0, 20.0])
def test_tabulated_walls_reach_the_wkb_target(L):
    # W = x tabulated on [-L, L]: the walls sit where the uniform field's
    # WKB walls do, inside the table, and the top level intertwines
    xs = np.linspace(-L, L, int(20 * L) + 1)
    prob = Problem(tabulated_profile(xs, xs), make_rep("first"), p_y=0.0, e=1.0,
                   n_max=8, n_points=1024, tol_eig=1e-6)
    walls, uniform = prob.grid.domain, build_grid(uniform_profile(1.0), 0.0, 8)
    assert -L <= walls.x_min and walls.x_max <= L
    assert walls.x_max == pytest.approx(uniform.x_max, abs=0.01)
    assert verify_gpEp(prob.levels).max() < 1e-5


@pytest.mark.parametrize("field", [uniform_profile(1.0), exponential_profile(1.0, 0.1)],
                         ids=["uniform", "exponential"])
def test_table_of_a_closed_form_field_reaches_its_levels(field):
    # W sampled on [-16, 16], wide enough for the WKB walls of level 8: the
    # spline and the table's walls keep the closed form's levels within
    # tol_eig, on a grid where the field itself reads about 5e-8 from them
    xs = np.linspace(-16.0, 16.0, 321)
    table = tabulated_profile(xs, evaluate_potential(field, xs)[0])
    for profile in (field, table):
        prob = Problem(profile, make_rep("first"), p_y=0.0, e=1.0, n_max=8,
                       n_points=2048, tol_eig=1e-6)
        for spec in (prob.spec_plus, prob.spec_minus):
            levels = [analytic_levels(field, 1.0, 0.0, n, spec.sigma) for n in range(9)]
            assert_allclose(spec.eigenvalues, levels, rtol=0,
                            atol=1e-6 if profile is table else 1e-7)


def test_table_ending_before_the_wkb_target_is_a_truncation_error():
    xs = np.linspace(-5.0, 5.0, 101)
    with pytest.raises(TruncationError, match=r"the table ends at x = -?5, where the WKB "
                                              r"decay .* reaches 0\.55"):
        build_grid(tabulated_profile(xs, xs), 0.0, 8)


@pytest.mark.parametrize("p_y,edge", [(0.0, "-3"), (2.0, "3")])
def test_table_ending_inside_the_sublevel_set_is_a_truncation_error(tmp_path, p_y, edge):
    # W = x on [-3, 3]: V <= k_est = 20 spans about p_y +- 4.6, past both
    # edges at p_y = 0 (the left one is named) and past the right one at p_y = 2
    xs = np.linspace(-3.0, 3.0, 61)
    with pytest.raises(TruncationError, match=rf"the table ends at x = {edge}, inside the "
                                              r"sublevel set V <= k_est = \S+ of levels 0\.\.8"):
        build_grid(tabulated_profile(xs, xs), p_y, 8)
    table = tmp_path / "W.csv"
    table.write_text("x,W\n" + "".join(f"{x!r},{x!r}\n" for x in xs.tolist()))
    cfg = RunConfig(profile_kind="tabulated", profile_params={"path": str(table)}, p_y=p_y)
    report, ok = run("spectrum", cfg)
    assert not ok and report["error"].startswith(f"TruncationError: the table ends at x = {edge},")


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
    spec = solve_channel(uni.ops.H[+1], uni.ops.V[+1], uni.grid, +1, 4)
    assert spec.eigenvalues[0] == (0.0 if clamped else raw)
    assert bool(spec.flags) == flagged


def test_quadrature_norms_and_sturm_counts(uni):
    phi = uni.spec_plus.eigenfunctions
    assert_allclose(uni.grid.h * np.sum(phi**2, axis=0), 1.0, atol=1e-10)
    assert [sign_changes(f) for f in phi.T[:5]] == list(range(5))


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
    grid = Grid(build_grid(prof, 0.9, 4), 512)
    spec = channel_solve(prof, 0.9, +1, grid, n_levels=5)
    assert_allclose(spec.eigenvalues, uni.spec_plus.eigenvalues[:5], atol=1e-5)


def test_morse_chain_for_exponential_profile():
    # W = (B/a)(1 - e^{-ax}): the shape-invariant chain, with the partner
    # channel shifted by one level; at p_y = 0 and eB = 1, k_n = 2nB - n^2 a^2
    a = 0.1
    assert analytic_levels(exponential_profile(1.0, a), 1.0, 0.0, 3, +1) == pytest.approx(
        6 - 9 * a * a, abs=1e-12)
    for B, p_y in ((1.0, 0.0), (1.0, 0.8), (-1.0, -0.5)):
        prof = exponential_profile(B, a)
        grid = Grid(build_grid(prof, p_y, 5), 768)
        for sigma in (+1, -1):
            spec = channel_solve(prof, p_y, sigma, grid, n_levels=5)
            for n, k in enumerate(spec.eigenvalues):
                assert abs(k - analytic_levels(prof, 1.0, p_y, n, sigma)) < 1e-6, (B, p_y, n)


def test_solver_argument_validation(uni):
    H, V, grid = uni.ops.H[+1], uni.ops.V[+1], uni.grid
    with pytest.raises(ArgumentError):
        solve_channel(H, V, grid, 0, n_levels=3)
    with pytest.raises(ArgumentError):
        solve_channel(H, V, grid, +1, n_levels=0)
    with pytest.raises(TruncationError):
        solve_channel(H, V, grid, +1, n_levels=V.size // 2)


def test_exponential_field_past_its_bound_is_refused_before_any_walk(monkeypatch):
    # the field binds levels 0..3 in its zero-mode channel and 0..2 in its
    # partner, so n_max = 3 is refused by field_scales: validate, build_grid
    # and a library Problem print one message, and none samples the potential
    def no_sampling(*args):
        raise AssertionError("the grid sizing sampled the potential")

    monkeypatch.setattr(spectral_grid, "channel_potentials", no_sampling)
    message = ("n_max = 3 asks for 4 levels of each channel, but the exponential field binds 4 "
               "in the zero-mode channel and 3 in its partner (levels n < |c|/|alpha| = 4, "
               "c = p_y - eB/alpha = -2)")
    cfg = RunConfig(profile_kind="exponential", profile_params={"B": 1.0, "alpha": 0.5}, n_max=3)
    profile = exponential_profile(1.0, 0.5)
    problem = Problem(profile, make_rep("first"), 0.0, 1.0, 3, 1024, 1e-6)
    for refuse in (cfg.validate, lambda: build_grid(profile, 0.0, 3),
                   lambda: problem.grid):
        with pytest.raises(ConfigurationError) as err:
            refuse()
        assert str(err.value) == message


def test_sublevel_set_too_wide_to_walk_stops_at_step_guard(monkeypatch):
    # at n_max = 48 the uniform field's sublevel set V <= k_est = 100 spans
    # |x| <= 10.05, about 10,050 steps of 1e-3 a side: the guard stops the
    # walks, and names the set, not a plateau the field does not have
    monkeypatch.setattr(spectral_grid, "_GUARD", 20_000)
    with pytest.raises(ConfigurationError) as err:
        build_grid(uniform_profile(1.0), 0.0, 48)
    found = re.fullmatch(r"the sublevel set V <= k_est = 100 of levels 0\.\.48 spans more than "
                         r"20,000 grid steps of 0\.001 \(from x = (\S+) to (\S+) when the walks "
                         r"stopped\): too wide to size a grid", str(err.value))
    assert found, str(err.value)
    xa, xb = map(float, found.groups())
    assert xa == pytest.approx(-10.05, abs=0.01) and xb - xa == pytest.approx(20.0, abs=0.01)


def test_unresolvable_levels_hit_the_wall():
    prof = uniform_profile(1.0)
    grid = Grid(build_grid(prof, 0.0, 1), 128)
    with pytest.raises(TruncationError):
        channel_solve(prof, 0.0, +1, grid, n_levels=30)


def test_tiny_tolerance_rejects_coarse_zero_mode():
    # at N=128 the raw zero-mode eigenvalue is slightly negative; an
    # unrealistically tight tol_eig must turn that into a hard error
    prof = uniform_profile(1.0)
    grid = Grid(build_grid(prof, 0.0, 2), 128)
    with pytest.raises(DiscretizationError):
        channel_solve(prof, 0.0, +1, grid, n_levels=3, tol_eig=1e-14)


TABLE_16 = np.linspace(-16.0, 16.0, 321)


@pytest.mark.parametrize("profile,named", [
    # V = -eB at the minimum is finite, its sampled curvature 2 (eB)^2 is not
    pytest.param(uniform_profile(1e154),
                 "its curvature V'' = inf at the sampled minimum V = -1e+154", id="curvature"),
    # M^2 overflows at every sample, the minimum's too
    pytest.param(tabulated_profile(TABLE_16, 1e300 * (TABLE_16 + 0.05)),
                 "V = inf at its sampled minimum", id="potential"),
])
def test_an_overflow_names_what_overflowed(profile, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError) as err:
            build_grid(profile, 0.0, 8)
    assert str(err.value).startswith(
        f"the field's potential overflows: {named} gives the level estimate k_est = ")


@pytest.mark.parametrize("profile,k2", [
    (uniform_profile(1.0), 4.0),
    (exponential_profile(1.0, 0.1), 2 * 2 * 1.0 - 4 * 0.01),  # 2nB - n^2 alpha^2
    (tabulated_profile(TABLE_16, TABLE_16), 4.0),  # W = x: the uniform field's k_2
], ids=["uniform", "exponential", "table"])
def test_refinement_ladder_order_four(profile, k2):
    # a closed form is the reference; a table has none, so its reference is
    # the Richardson extrapolation of the finest pair
    N_list = [128, 256, 512]
    base = Problem(profile, make_rep("first"), p_y=0.0, e=1.0, n_max=4, n_points=N_list[0],
                   tol_eig=1e-3)
    rungs = [base.refined(N) for N in N_list]
    hs, ks = [r.grid.h for r in rungs], [float(r.spec_plus.eigenvalues[2]) for r in rungs]
    if profile.kind == "tabulated":
        r = (N_list[-1] - 1) / (N_list[-2] - 1)
        ref = (ks[-1] * r**4 - ks[-2]) / (r**4 - 1.0)
        assert ref == pytest.approx(k2, abs=1e-6)
    else:
        ref = analytic_levels(profile, 1.0, 0.0, 2, +1)
        assert ref == pytest.approx(k2, abs=1e-12)
    errors = [abs(k - ref) for k in ks]
    assert errors == sorted(errors, reverse=True)
    assert 3.5 < observed_order(hs, errors) < 4.5


# CI's tabulated field, W = x + 0.003 sin(x/2) on [-16, 16]
CI_X = np.array([-16.0 + 0.2 * i for i in range(161)])
CI_W = np.array([x + 0.003 * math.sin(0.5 * x) for x in CI_X])


def integral_M(profile, p_y, e, x):
    """int_0^x M dx', M = p_y - e W, in closed form: for a table, the spline's quartic antiderivative."""
    if profile.kind == "uniform":
        return p_y * x - e * profile.params["B"] * x * x / 2
    if profile.kind == "exponential":
        B, alpha = profile.params["B"], profile.params["alpha"]
        lam = e * B / alpha
        return (p_y - lam) * x - lam / alpha * np.expm1(-alpha * x)
    # from the table's first knot: a constant, which the normalization drops
    knots, table = profile.params["x"], profile._table
    powers = np.arange(1, 5)    # c_j t^j integrates to c_j t^(j+1)/(j+1)
    whole = (table * np.diff(knots)[:, None] ** powers / powers).sum(axis=1)
    start = np.concatenate([[0.0], np.cumsum(whole)])
    i = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, knots.size - 2)
    t = x - knots[i]
    return p_y * x - e * (start[i] + (table[i] * t[:, None] ** powers / powers).sum(axis=1))


def zero_mode_error(prob):
    """||phi_0 - psi_0|| sqrt(h): the solver's zero mode psi_0 against phi_0 ~ exp(-+int M dx).

    A phi_0 = 0 or A^T phi_0 = 0, A = d/dx + M, whichever solution is
    normalizable (Aharonov & Casher, Phys. Rev. A 19 (1979) 2461): the one
    whose exponent peaks inside the walls.  It is positive, as the solver's
    phase rule makes psi_0.
    """
    spec = min((prob.spec_plus, prob.spec_minus), key=lambda spec: spec.eigenvalues[0])
    F = integral_M(prob.profile, prob.p_y, prob.e, prob.grid.x)
    sign = 1.0 if 0 < int(np.argmax(F)) < F.size - 1 else -1.0
    phi = np.exp(sign * F - (sign * F).max())
    h = prob.grid.h
    phi /= math.sqrt(h * (phi @ phi))
    return math.sqrt(h) * float(np.linalg.norm(phi - spec.eigenfunctions[:, 0]))


@pytest.mark.parametrize("profile", [
    uniform_profile(1.0), uniform_profile(-1.0), exponential_profile(1.0, 0.1),
    tabulated_profile(CI_X, CI_W),
], ids=["uniform", "uniform-negative", "exponential", "ci-table"])
def test_zero_mode_matches_its_closed_form_at_order_four(profile):
    # the one continuum oracle of a table's eigenfunctions; measured errors
    # 1.7e-8, 1.1e-9 and 6.8e-11 on N = 512, 1024 and 2048 (uniform and table)
    base = Problem(profile, make_rep("first"), p_y=0.0, e=1.0, n_max=8, n_points=1024,
                   tol_eig=1e-6)
    rungs = [base.refined(N) for N in (512, 1024, 2048)]
    errors = [zero_mode_error(r) for r in rungs]
    assert errors[1] < 1e-8
    assert 3.5 < observed_order([r.grid.h for r in rungs], errors) < 4.5


def channel_eigenvalues(profile, p_y):
    """Both channels' k_0..k_8 at N = 1024, sigma = +1 first."""
    prob = Problem(profile, make_rep("first"), p_y=p_y, e=1.0, n_max=8, n_points=1024,
                   tol_eig=1e-6)
    return np.concatenate([prob.spec_plus.eigenvalues, prob.spec_minus.eigenvalues])


def assert_same_spectrum(k, other):
    assert np.all(np.abs(other - k) <= 1e-11 * np.maximum(1.0, np.abs(k))), other - k


@pytest.mark.parametrize("p_y", [0.0, 0.3, -0.7])
@pytest.mark.parametrize("c", [0.7, -1.3, 2.0])
def test_a_gauge_shift_of_the_table_moves_no_eigenvalue(p_y, c):
    # W -> W + c with p_y -> p_y + e c leaves M = p_y - e W, so every k_n;
    # measured at most 8e-15 relative
    k = channel_eigenvalues(tabulated_profile(CI_X, CI_W), p_y)
    assert_same_spectrum(k, channel_eigenvalues(tabulated_profile(CI_X, CI_W + c), p_y + c))


@pytest.mark.parametrize("p_y", [0.0, 0.3, -0.7])
@pytest.mark.parametrize("kind", ["tabulated", "exponential"])
def test_a_mirrored_field_keeps_every_eigenvalue(kind, p_y):
    # W(x) -> -W(-x) with p_y -> -p_y takes M(x) to -M(-x) and V_sigma(x) to
    # V_sigma(-x): each channel keeps its k_n.  The exponential field's mirror
    # is alpha -> -alpha.  Measured at most 1.3e-13 relative
    if kind == "tabulated":
        field, mirror = tabulated_profile(CI_X, CI_W), tabulated_profile(-CI_X[::-1], -CI_W[::-1])
    else:
        field, mirror = exponential_profile(1.0, 0.1), exponential_profile(1.0, -0.1)
    assert_same_spectrum(channel_eigenvalues(field, p_y), channel_eigenvalues(mirror, -p_y))


def scaled_uniform_field(eB, p_y):
    """((x_min - x0)/ell, (x_max - x0)/ell) and both channels' k_n/|eB|, n >= 1, at N = 1024.

    tol_eig scales with |eB|, so that the absolute tolerance refuses no
    strong field's zero mode.
    """
    prob = Problem(uniform_profile(eB), make_rep("first"), p_y=p_y, e=1.0,
                   n_max=8, n_points=1024, tol_eig=1e-6 * abs(eB))
    x0, scale = p_y / eB, abs(eB) ** 0.5
    domain = prob.grid.domain
    walls = ((domain.x_min - x0) * scale, (domain.x_max - x0) * scale)
    levels = [spec.eigenvalues[1:] / abs(eB) for spec in (prob.spec_plus, prob.spec_minus)]
    return walls, np.concatenate(levels)


unit_field = functools.lru_cache(scaled_uniform_field)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@example(log_eB=-9.0, sign=1.0, k=3.0)
@example(log_eB=6.0, sign=-1.0, k=0.0)
@given(log_eB=st.floats(-9.0, 6.0), sign=st.sampled_from([1.0, -1.0]),
       k=st.sampled_from([0.0, 3.0]))
def test_a_uniform_field_is_sized_in_its_own_length(log_eB, sign, k):
    # x -> (x - x0)/ell, ell = |eB|^-1/2, maps a uniform field of any strength,
    # at p_y = k/ell, onto eB = +-1 at p_y = k: the walls scale with ell and
    # k_n with |eB|; k_0 is left to the absolute ZERO_CLAMP
    eB = sign * 10.0 ** log_eB
    walls, levels = scaled_uniform_field(eB, k * abs(eB) ** 0.5)
    unit_walls, unit_levels = unit_field(sign, k)
    assert_allclose(walls, unit_walls, rtol=1e-12, atol=0)
    assert_allclose(levels, unit_levels, rtol=0, atol=1e-9)


def test_spectrum_csv_round_trip(tmp_path):
    # the `spectrum` section writes spectrum.csv next to its report
    report, _ = run("spectrum", RunConfig(grid_n=256, n_max=3), outdir=tmp_path)
    results = report["results"]
    lines = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "sigma,n,k"
    assert len(lines) == 1 + len(results["sigma_plus"]) + len(results["sigma_minus"])
    sigma, n, k = lines[1].split(",")
    assert (sigma, n) == ("1", "0")
    assert float(k) == pytest.approx(results["sigma_plus"][0], rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("eB", [s * m for m in (8e-155, 1e-154, 1e-120, 1e-60, 1e-9, 1e-3, 0.5, 8.0)
                                for s in (1.0, -1.0)])
def test_uniform_levels_over_eB_are_those_of_eB_1_down_to_the_weakest_field(eB):
    # k_n/|eB|, n >= 1, of both channels against eB = 1's, the channels
    # swapped for eB < 0, down to the weakest field field_scales admits:
    # measured at most 3.3e-12
    _, levels = unit_field(eB, 0.0)
    if eB < 0:
        levels = np.roll(levels, levels.size // 2)
    assert np.abs(levels - unit_field(1.0, 0.0)[1]).max() < 1e-10
