"""Gauge profiles: W, W' = B, partner potentials, analytic level formulas."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ritusfw.errors import ArgumentError, ConfigurationError, DomainError, UnsupportedProfileError
from ritusfw.field_profiles import (analytic_levels, bound_levels, channel_potentials,
                                    evaluate_potential, exponential_profile, field_scales,
                                    load_tabulated_csv, tabulated_profile,
                                    uniform_profile)

XS = np.linspace(-3.0, 3.0, 41)


def test_uniform_is_linear():
    prof = uniform_profile(2.5)
    W, Wp = evaluate_potential(prof, XS)
    assert_allclose(W, 2.5 * XS, rtol=0, atol=0)
    assert_allclose(Wp, 2.5, rtol=0, atol=0)


def test_exponential_matches_closed_form():
    B, a = 1.3, 0.2
    prof = exponential_profile(B, a)
    W, Wp = evaluate_potential(prof, XS)
    assert_allclose(W, -B * np.expm1(-a * XS) / a, rtol=1e-14)
    assert_allclose(Wp, B * np.exp(-a * XS), rtol=1e-14)


def test_exponential_derivative_against_finite_differences():
    # independent oracle: 4th-order central difference of W
    prof = exponential_profile(0.9, 0.35)
    d = 1e-3
    for x in (-1.7, 0.0, 2.2):
        stencil = np.array([x - 2 * d, x - d, x + d, x + 2 * d])
        Ws, _ = evaluate_potential(prof, stencil)
        fd = (Ws[0] - 8 * Ws[1] + 8 * Ws[2] - Ws[3]) / (12 * d)
        _, Wp = evaluate_potential(prof, np.array([x]))
        assert abs(fd - Wp[0]) < 1e-8


def test_exponential_small_alpha_limit():
    # expm1 keeps the alpha -> 0 limit stable: W -> B x
    prof = exponential_profile(1.0, 1e-10)
    W, Wp = evaluate_potential(prof, XS)
    assert_allclose(W, XS, atol=1e-8)
    assert_allclose(Wp, 1.0, atol=1e-8)
    with pytest.raises(ArgumentError):
        exponential_profile(1.0, 0.0)


def test_tabulated_reproduces_samples():
    base = exponential_profile(1.0, 0.1)
    xs = np.linspace(-6.0, 6.0, 241)
    W, _ = evaluate_potential(base, xs)
    tab = tabulated_profile(xs, W)
    mid = np.linspace(-5.5, 5.5, 37)
    Wt, Wpt = evaluate_potential(tab, mid)
    Wb, Wpb = evaluate_potential(base, mid)
    assert_allclose(Wt, Wb, atol=1e-7)
    assert_allclose(Wpt, Wpb, atol=1e-5)


def test_tabulated_domain_and_validation():
    xs = np.linspace(0.0, 1.0, 8)
    tab = tabulated_profile(xs, xs**2)
    with pytest.raises(DomainError):
        evaluate_potential(tab, np.array([1.5]))
    with pytest.raises(ArgumentError, match=">= 4 samples"):
        tabulated_profile(xs[:3], xs[:3])
    bad = xs.copy()
    bad[4] = bad[2]
    with pytest.raises(ArgumentError, match="strictly increasing"):
        tabulated_profile(bad, xs**2)
    with pytest.raises(ArgumentError, match="strictly increasing"):
        tabulated_profile(xs[::-1], xs**2)
    for x_bad, W_bad in [(np.append(xs[:-1], np.inf), xs**2),
                         (xs, np.where(xs == xs[3], np.nan, xs**2)),
                         (xs, np.where(xs == xs[3], -np.inf, xs**2))]:
        with pytest.raises(ArgumentError, match="must be finite"):
            tabulated_profile(x_bad, W_bad)


@st.composite
def tables(draw):
    """(x, W, points): n in [4, 200] samples, uniform or random spacing, and
    every knot, both ends and interior points to evaluate at."""
    n = draw(st.integers(4, 200))
    x0 = draw(st.floats(-50.0, 50.0))
    if draw(st.booleans()):
        x = x0 + draw(st.floats(0.01, 5.0)) * np.arange(n)
    else:
        gaps = draw(st.lists(st.floats(0.01, 5.0), min_size=n - 1, max_size=n - 1))
        x = x0 + np.concatenate(([0.0], np.cumsum(gaps)))
    W = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    fractions = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50)))
    inner = np.clip(x[0] + fractions * (x[-1] - x[0]), x[0], x[-1])
    points = np.concatenate((x, [x[0], x[-1]], 0.5 * (x[:-1] + x[1:]), inner))
    return x, W, points


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(tables())
# W = -(x^3 + x^2 + x): every term at x = 0 is -0.0, and PPoly's sum starts at +0.0
@example((np.arange(4.0), -np.array([0.0, 3.0, 14.0, 39.0]), np.arange(4.0)))
def test_tabulated_spline_is_scipy_cubic_spline_bit_for_bit(table):
    # the oracle is scipy's not-a-knot CubicSpline, imported only here
    from scipy.interpolate import CubicSpline

    x, W, points = table
    spline = CubicSpline(x, W)
    Wt, Wpt = evaluate_potential(tabulated_profile(x, W), points)
    assert Wt.tobytes() == spline(points).tobytes()
    assert Wpt.tobytes() == spline(points, 1).tobytes()


def test_csv_loader_round_trip(tmp_path):
    xs = np.linspace(-1.0, 2.0, 16)
    W = np.sin(xs)
    path = tmp_path / "profile.csv"
    with open(path, "w") as fh:
        fh.write("x,W\n")
        for x, w in zip(xs, W):
            fh.write(f"{x:.12g},{w:.12g}\n")
    prof = load_tabulated_csv(path)
    Wl, _ = evaluate_potential(prof, xs[2:-2])
    assert_allclose(Wl, W[2:-2], atol=1e-9)

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n0,0\n1,1\n2,2\n3,3\n")
    with pytest.raises(ArgumentError):
        load_tabulated_csv(bad)


@pytest.mark.parametrize("sigma", [+1, -1])
def test_partner_potentials_formula(sigma):
    prof = exponential_profile(1.0, 0.25)
    p_y, e = 0.4, 1.0
    M, Vp, Vm = channel_potentials(prof, p_y, e, XS)
    W, Wp = evaluate_potential(prof, XS)
    assert np.array_equal(M, p_y - e * W)
    V = Vp if sigma > 0 else Vm
    assert np.array_equal(V, (p_y - e * W) ** 2 - sigma * e * Wp)


@pytest.mark.parametrize(
    "e,B,n,sigma,expected",
    [
        (1.0, 1.0, 0, +1, 0.0),
        (1.0, 1.0, 3, +1, 6.0),
        (1.0, 1.0, 0, -1, 2.0),
        (1.0, 1.0, 3, -1, 8.0),
        (1.0, -1.0, 0, +1, 2.0),   # zero mode migrates to sigma = -1
        (1.0, -1.0, 0, -1, 0.0),
        (2.0, 0.5, 2, +1, 4.0),
    ],
)
def test_analytic_landau_levels(e, B, n, sigma, expected):
    # the Landau levels do not depend on p_y
    for p_y in (0.0, 0.7):
        assert analytic_levels(uniform_profile(B), e, p_y, n, sigma) == pytest.approx(
            expected, abs=1e-14)


@pytest.mark.parametrize(
    "B,alpha,p_y,e",
    [(1.0, 0.1, 0.0, 1.0), (1.0, 0.1, 0.6, 1.0), (-1.0, 0.1, -0.4, 1.0),
     (1.0, -0.25, 0.9, 1.0), (-1.0, -0.1, 0.3, -2.0)],
)
def test_analytic_morse_levels(B, alpha, p_y, e):
    # M = p_y - eW = c + (eB/alpha) e^{-alpha x}: k_n = c^2 - (|c| - n|alpha|)^2 in
    # the channel sigma = sign(eB), and k_{n+1} in its partner
    c = p_y - e * B / alpha
    zero = 1 if e * B > 0 else -1
    for n in range(4):
        k = [c * c - (abs(c) - m * abs(alpha)) ** 2 for m in (n, n + 1)]
        assert analytic_levels(exponential_profile(B, alpha), e, p_y, n, zero) == pytest.approx(
            k[0], abs=1e-12)
        assert analytic_levels(exponential_profile(B, alpha), e, p_y, n, -zero) == pytest.approx(
            k[1], abs=1e-12)
    assert analytic_levels(exponential_profile(B, alpha), e, p_y, 0, zero) == 0.0


def test_morse_levels_past_the_bound_count_read_the_plateau():
    # |c|/|alpha| = 2/0.5 = 4: levels 0..3 are bound, level 4 and up sit at c^2 = 4
    prof = exponential_profile(1.0, 0.5)
    assert bound_levels(prof, 1.0, 0.0)[0] == 4
    assert [analytic_levels(prof, 1.0, 0.0, n, +1) for n in range(6)] == [
        0.0, 1.75, 3.0, 3.75, 4.0, 4.0]
    assert analytic_levels(prof, 1.0, 0.0, 3, -1) == 4.0
    assert analytic_levels(prof, 1.0, 0.0, math.inf, +1) == 4.0


@pytest.mark.parametrize("B,alpha,p_y,bound", [
    (1.0, 0.1, 0.0, 100), (1.0, 0.1, 0.55, 95), (1.0, 0.1, 10.0, 0), (1.0, 0.1, 11.0, 0),
    (1.0, -0.1, -11.0, 0), (1.0, -0.1, 0.0, 100), (-1.0, -0.1, 11.0, 0), (-1.0, 0.1, -11.0, 0),
])
def test_bound_levels_need_opposite_signs(B, alpha, p_y, bound):
    # the zero mode exists only when c = p_y - eB/alpha and eB/alpha have
    # opposite signs; without it the field binds nothing, and every level
    # reads the plateau c^2
    prof = exponential_profile(B, alpha)
    count, rule = bound_levels(prof, 1.0, p_y)
    assert count == bound
    if not bound:
        assert "opposite signs" in rule
        c = p_y - B / alpha
        assert analytic_levels(prof, 1.0, p_y, 0, 1 if B > 0 else -1) == c * c


def test_field_scales_refuses_every_field_no_grid_can_size():
    # one field per refusal, each with the message that RunConfig.validate
    # prints for it: (profile, e, p_y, n_max, message)
    uniform = ", which must be finite and nonzero"
    morse = ", which needs a finite square and a finite |c|/|alpha|"
    cases = [
        (uniform_profile(1.0), 0.0, 0.0, 8, "e = 0.0 and profile B = 1.0 give eB = 0.0" + uniform),
        (uniform_profile(1e-200), 1e-200, 0.0, 8,
         "e = 1e-200 and profile B = 1e-200 give eB = 0.0" + uniform),
        (uniform_profile(1e200), 1e200, 0.0, 8,
         "e = 1e+200 and profile B = 1e+200 give eB = inf" + uniform),
        # c^2 overflows; then c^2 is finite, but |c|/|alpha| overflows
        (exponential_profile(1.0, 1e-160), 1.0, 0.0, 8,
         "profile B = 1.0 and alpha = 1e-160 give c = p_y - eB/alpha = -1e+160" + morse),
        (exponential_profile(1e-150, 1e-250), 1.0, 0.0, 8,
         "profile B = 1e-150 and alpha = 1e-250 give c = p_y - eB/alpha = -1e+100" + morse),
        (exponential_profile(1.0, 0.1), 1.0, 11.0, 8,
         "the exponential field binds no level: a zero mode needs c = p_y - eB/alpha = 1 and "
         "eB/alpha = 10 of opposite signs"),
        (exponential_profile(1.0, 0.5), 1.0, 0.0, 3,
         "n_max = 3 asks for 4 levels of each channel, but the exponential field binds 4 in the "
         "zero-mode channel and 3 in its partner (levels n < |c|/|alpha| = 4, "
         "c = p_y - eB/alpha = -2)"),
        # c^2 underflows and |c|/|alpha| is finite, but alpha c underflows to 0
        (exponential_profile(1e-320, 1e-170), 1.0, 1e-320 / 1e-170 - 1e4 * 1e-170, 8,
         "profile B = 1e-320 and alpha = 1e-170 give |alpha c| = 0 (c = -1.35666e-166), so the "
         "field's length |alpha c|^-1/2 is not finite"),
    ]
    for profile, e, p_y, n_max, message in cases:
        with pytest.raises(ConfigurationError) as err:
            field_scales(profile, e, p_y, n_max)
        assert str(err.value) == message
    # one level fewer fits: the partner's level 2 is k = 3.75, below the plateau c^2 = 4
    assert field_scales(exponential_profile(1.0, 0.5), 1.0, 0.0, 2) == ((-1.0, 1.0), 1.0, 3.875)


def test_level_formula_validation():
    with pytest.raises(ArgumentError):
        analytic_levels(uniform_profile(1.0), 1.0, 0.0, -1, +1)
    with pytest.raises(ArgumentError):
        analytic_levels(uniform_profile(1.0), 1.0, 0.0, 0, 2)
    table = tabulated_profile(XS, XS)
    with pytest.raises(UnsupportedProfileError):
        analytic_levels(table, 1.0, 0.0, 0, +1)
    for prof in (table, uniform_profile(1.0)):
        with pytest.raises(UnsupportedProfileError):
            bound_levels(prof, 1.0, 0.0)
