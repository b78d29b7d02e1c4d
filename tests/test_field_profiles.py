"""Gauge profiles: W, W' = B, partner potentials, analytic level formulas."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ritusfw.errors import ArgumentError, DomainError
from ritusfw.field_profiles import (analytic_landau_levels,
                                    evaluate_potential, exponential_profile,
                                    load_tabulated_csv,
                                    susy_partner_potentials, tabulated_profile,
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
    Vp, Vm = susy_partner_potentials(prof, p_y, e)
    W, Wp = evaluate_potential(prof, XS)
    V = Vp(XS) if sigma > 0 else Vm(XS)
    assert_allclose(V, (p_y - e * W) ** 2 - sigma * e * Wp, rtol=1e-14)


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
    assert analytic_landau_levels(e, B, n, sigma) == pytest.approx(expected, abs=1e-14)


def test_level_formula_validation():
    with pytest.raises(ArgumentError):
        analytic_landau_levels(1.0, 1.0, -1, +1)
    with pytest.raises(ArgumentError):
        analytic_landau_levels(1.0, 1.0, 0, 2)
