"""Static magnetic field profiles in the Landau-like gauge A^mu = (0, 0, W(x)).

The magnetic field is B(x) = W'(x).  Three kinds are supported:

* uniform:      W(x) = B x              (W' = B)
* exponential:  W(x) = (B/alpha)(1 - e^{-alpha x})   (W' = B e^{-alpha x})
* tabulated:    cubic-spline interpolation of samples (x_i, W_i)

The tabulated kind is the not-a-knot cubic spline (de Boor, A Practical
Guide to Splines, 1978): the third derivative is continuous at the second
and the second-to-last sample.  Its knot slopes solve one tridiagonal system
(LAPACK xGTSV through scipy.linalg.solve_banded), built term for term as
scipy's CubicSpline builds it for n >= 4 samples, and each interval's cubic
is summed in ascending powers as scipy's PPoly sums it.  So W and W' equal
CubicSpline's bit for bit, and no run imports scipy's interpolation package,
which loads about two hundred more scipy modules.  This module imports
numpy alone: scipy.linalg loads when a table's spline is built, and for the
uniform and exponential kinds at a run's first solve, after every refusal
of ``field_scales``.

The supersymmetric partner potentials entering the squared spatial Dirac
operator are V_sigma(x) = M(x)^2 - sigma e W'(x), M = p_y - e W(x).  This
module alone knows the closed forms: Landau levels, and the exponential
field's shape-invariant Morse chain (Cooper, Khare & Sukhatme, Phys. Rep.
251, 1995, 267); and each field's length, which sizes the grid.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import ArgumentError, ConfigurationError, DomainError, UnsupportedProfileError

__all__ = [
    "FieldProfile",
    "uniform_profile",
    "exponential_profile",
    "tabulated_profile",
    "load_tabulated_csv",
    "evaluate_potential",
    "channel_potentials",
    "analytic_levels",
    "bound_levels",
    "field_scales",
]


@dataclass(frozen=True)
class FieldProfile:
    """Gauge function W(x), its parameters, and its domain: the line, or a table's span."""

    kind: str                      # "uniform" | "exponential" | "tabulated"
    params: dict
    domain: Tuple[float, float] = (-math.inf, math.inf)
    # tabulated only: row i holds the cubic on [x_i, x_{i+1}], see _not_a_knot_table
    _table: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


def uniform_profile(B: float = 1.0) -> FieldProfile:
    """W(x) = B x, constant field B."""
    return FieldProfile(kind="uniform", params={"B": float(B)})


def exponential_profile(B: float = 1.0, alpha: float = 0.1) -> FieldProfile:
    """W(x) = (B/alpha)(1 - e^{-alpha x}), decaying field B e^{-alpha x}."""
    if alpha == 0.0:
        raise ArgumentError("alpha must be nonzero; use the uniform kind instead")
    return FieldProfile(kind="exponential", params={"B": float(B), "alpha": float(alpha)})


def _not_a_knot_table(x: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Coefficients of the not-a-knot cubic spline through (x_i, W_i), n >= 4.

    Row i holds (W_i, s_i, c_2, c_3) of W_i + s_i t + c_2 t^2 + c_3 t^3,
    t = x - x_i, on [x_i, x_{i+1}]; shape (n - 1, 4).  The knot slopes s
    solve the tridiagonal system of C^2 continuity with the two not-a-knot
    end rows, in CubicSpline's operation order.  The first two columns get
    + 0.0, the start value of PPoly's sum, which turns a -0.0 into 0.0.
    """
    from scipy.linalg import solve_banded

    n = x.size
    dx = np.diff(x)
    slope = np.diff(W) / dx
    ab = np.zeros((3, n))  # superdiagonal, diagonal, subdiagonal
    ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    ab[0, 2:] = dx[:-1]
    ab[-1, :-2] = dx[1:]
    b = np.empty(n)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    ab[1, 0], ab[0, 1] = dx[1], d
    b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    ab[1, -1], ab[-1, -2] = dx[-2], d
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = solve_banded((1, 1), ab, b, overwrite_ab=True, overwrite_b=True, check_finite=False)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.column_stack((W[:-1] + 0.0, s[:-1] + 0.0, (slope - s[:-1]) / dx - t, t / dx))


def tabulated_profile(x: np.ndarray, W: np.ndarray) -> FieldProfile:
    """Profile from samples; W is the not-a-knot cubic spline, W' its derivative."""
    x = np.asarray(x, dtype=float)
    W = np.asarray(W, dtype=float)
    if x.ndim != 1 or x.shape != W.shape or x.size < 4:
        raise ArgumentError("tabulated profile needs matching 1D arrays with >= 4 samples")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(W))):
        raise ArgumentError("tabulated samples must be finite")
    if not np.all(np.diff(x) > 0):
        raise ArgumentError("tabulated x samples must be strictly increasing")
    return FieldProfile(
        kind="tabulated",
        params={"x": x, "W": W},
        domain=(float(x[0]), float(x[-1])),
        _table=_not_a_knot_table(x, W),
    )


def load_tabulated_csv(path) -> FieldProfile:
    """Load a tabulated profile from a two-column CSV with header row ``x,W``."""
    xs, ws = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if [c.strip() for c in header[:2]] != ["x", "W"]:
            raise ArgumentError(f"expected header 'x,W' in {path}, got {header!r}")
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise ArgumentError(f"line {reader.line_num} of {path} has no W value")
            xs.append(float(row[0]))
            ws.append(float(row[1]))
    return tabulated_profile(np.array(xs), np.array(ws))


def evaluate_potential(profile: FieldProfile, x):
    """Return (W(x), W'(x)).  Accepts scalars or arrays.

    Raises DomainError for tabulated profiles evaluated outside the sample range.
    """
    if profile.kind == "uniform":
        B = profile.params["B"]
        x = np.asarray(x, dtype=float)
        return B * x, B * np.ones_like(x)
    if profile.kind == "exponential":
        B = profile.params["B"]
        a = profile.params["alpha"]
        x = np.asarray(x, dtype=float)
        # (1 - e^{-ax})/a via expm1 keeps the small-alpha limit accurate.
        return -B * np.expm1(-a * x) / a, B * np.exp(-a * x)
    if profile.kind == "tabulated":
        lo, hi = profile.domain
        x = np.asarray(x, dtype=float)
        if np.any(x < lo) or np.any(x > hi):
            raise DomainError(
                f"x outside tabulated range [{lo}, {hi}]"
            )
        knots = profile.params["x"]
        # interval i holds x_i <= x < x_{i+1}; the last one is closed on the right
        i = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, knots.size - 2)
        t = x - knots[i]
        c0, c1, c2, c3 = np.moveaxis(profile._table[i], -1, 0)
        # PPoly's sums, term by term: ascending powers, t^3 as (t t) t
        tt = t * t
        return (c0 + c1 * t) + c2 * tt + c3 * (tt * t), c1 + (c2 * t) * 2 + (c3 * tt) * 3
    raise ArgumentError(f"unknown profile kind {profile.kind!r}")


def channel_potentials(profile: FieldProfile, p_y: float, e: float, x):
    """(M, V_plus, V_minus) at x from one (W, W'): M = p_y - e W, V_sigma = M^2 - sigma e W'.

    sigma = +1 maps to the upper spinor component (gamma^0 = sigma_3 ordering).
    """
    W, Wp = evaluate_potential(profile, x)
    M = p_y - e * W
    M2, eWp = M ** 2, e * Wp
    return M, M2 - eWp, M2 + eWp


def _morse_chain(profile: FieldProfile, e: float, p_y: float):
    """(c, eB/alpha) of the exponential field's M = c + (eB/alpha) e^{-alpha x}."""
    lam = e * profile.params["B"] / profile.params["alpha"]
    return p_y - lam, lam


def bound_levels(profile: FieldProfile, e: float, p_y: float) -> Tuple[int, str]:
    """(K, rule): the exponential field's zero-mode channel binds levels 0..K-1, its partner 0..K-2.

    It has a zero mode, and binds the levels n < |c|/|alpha|, only when c = p_y - eB/alpha
    and eB/alpha have opposite signs; rule says which holds.  Another kind raises.
    """
    if profile.kind != "exponential":
        raise UnsupportedProfileError(f"the {profile.kind} profile has no closed-form bound count")
    c, lam = _morse_chain(profile, e, p_y)
    if c * lam >= 0:
        return 0, (f"a zero mode needs c = p_y - eB/alpha = {c:.6g} and eB/alpha = {lam:.6g} "
                   "of opposite signs")
    ratio = abs(c) / abs(profile.params["alpha"])
    return math.ceil(ratio), f"levels n < |c|/|alpha| = {ratio:.6g}, c = p_y - eB/alpha = {c:.6g}"


def analytic_levels(profile: FieldProfile, e: float, p_y: float, n: int, sigma: int) -> float:
    """Closed-form eigenvalue of level n of the channel Hamiltonian sigma.

    The zero-mode channel sigma = sign(eB) takes k_n, its partner k_{n+1}.
    Uniform: k_n = 2n|eB|.  Exponential: k_n = c^2 - (|c| - n|alpha|)^2,
    c = p_y - eB/alpha; a level that ``bound_levels`` does not count, and
    n = inf, reads the plateau c^2.  A table raises UnsupportedProfileError.
    """
    if n < 0:
        raise ArgumentError(f"level must be non-negative, got {n}")
    if sigma not in (1, -1):
        raise ArgumentError(f"sigma must be +1 or -1, got {sigma}")
    if profile.kind == "uniform":
        eB = e * profile.params["B"]
        if eB == 0.0:
            raise UnsupportedProfileError("analytic levels require eB != 0")
        return (2 * n + 1) * abs(eB) - sigma * np.sign(eB) * abs(eB)
    if profile.kind != "exponential":
        raise UnsupportedProfileError(f"the {profile.kind} profile has no closed-form levels")
    c, lam = _morse_chain(profile, e, p_y)
    if c * lam >= 0:
        return c * c  # no zero mode: nothing is bound
    n += sigma * e * profile.params["B"] < 0  # the partner channel starts one level up
    return c * c - max(abs(c) - n * abs(profile.params["alpha"]), 0.0) ** 2


# a table too strong for floats samples an inf potential, which build_grid refuses
@np.errstate(over="ignore", invalid="ignore")
def field_scales(profile: FieldProfile, e: float, p_y: float, n_max: int):
    """(window, ell, cap): what grid sizing knows of the field before it samples.

    ell is the field's length (its levels lie about 1/ell^2 apart), the window
    x0 +- ell brackets the potential minimum, and cap bounds the level estimate.
    Uniform: x0 = p_y/eB, ell = |eB|^-1/2.  Exponential: M(x0) = 0, ell =
    |alpha c|^-1/2 (M' = alpha c there), and cap midway between the plateau c^2
    and level n_max of either channel.  Table: the window is its span, and ell
    = (V''/2)^-1/4 at its lowest knot, at most the span.

    It alone refuses, with ConfigurationError, a field no grid can size at
    n_max: a uniform eB that is zero or not finite; an exponential field whose
    c^2, |c|/|alpha| or length |alpha c|^-1/2 is not finite, that has no zero
    mode, or that binds fewer than n_max + 1 levels in a channel; and any
    field whose length has no finite ell^4, beyond which the solver's
    shift-invert Lanczos vectors overflow (a uniform |eB| below
    1/sqrt(float max) = 7.46e-155).
    """
    if profile.kind == "uniform":
        eB = e * profile.params["B"]
        if not 0 < abs(eB) < math.inf:
            raise ConfigurationError(f"e = {e} and profile B = {profile.params['B']} give "
                                     f"eB = {eB}, which must be finite and nonzero")
        ell = abs(eB) ** -0.5
        window, cap = (p_y / eB - ell, p_y / eB + ell), math.inf
    elif profile.kind == "exponential":
        B, alpha = profile.params["B"], profile.params["alpha"]
        c, lam = _morse_chain(profile, e, p_y)
        # the closed forms square c and count levels below |c|/|alpha|
        if not (math.isfinite(c * c) and math.isfinite(abs(c) / abs(alpha))):
            raise ConfigurationError(
                f"profile B = {B} and alpha = {alpha} give c = p_y - eB/alpha = {c:.6g}, "
                "which needs a finite square and a finite |c|/|alpha|")
        # both channels solve n_max + 1 levels, and the partner binds one fewer
        bound, rule = bound_levels(profile, e, p_y)
        if bound == 0:
            raise ConfigurationError(f"the exponential field binds no level: {rule}")
        if n_max + 1 >= bound:
            raise ConfigurationError(
                f"n_max = {n_max} asks for {n_max + 1} levels of each channel, "
                f"but the exponential field binds {bound} in the zero-mode channel and "
                f"{bound - 1} in its partner ({rule})")
        if not 0 < abs(alpha * c) < math.inf:
            raise ConfigurationError(
                f"profile B = {B} and alpha = {alpha} give |alpha c| = {abs(alpha * c):.6g} "
                f"(c = {c:.6g}), so the field's length |alpha c|^-1/2 is not finite")
        x0, ell = -math.log1p(-p_y / lam) / alpha, abs(alpha * c) ** -0.5
        top = max(analytic_levels(profile, e, p_y, n_max, sigma) for sigma in (1, -1))
        window, cap = (x0 - ell, x0 + ell), 0.5 * (c * c + top)
    else:
        x = profile.params["x"]
        v = np.minimum(*channel_potentials(profile, p_y, e, x)[1:])  # the shallower channel
        i = min(max(int(np.argmin(v)), 1), x.size - 2)
        slopes = np.diff(v[i - 1:i + 2]) / np.diff(x[i - 1:i + 2])
        curv = 2 * (slopes[1] - slopes[0]) / (x[i + 1] - x[i - 1])
        span = x[-1] - x[0]
        window, cap = profile.domain, math.inf
        ell = float(min(span, (curv / 2) ** -0.25) if curv > 0 else span)
    # a product, not ell ** 4: a Python float's ** raises OverflowError where * gives inf
    if not math.isfinite(ell * ell * ell * ell):
        raise ConfigurationError(
            f"the field's length ell = {ell:.6g} has no finite ell^4: the field is too weak "
            "for the solver's floats")
    return window, ell, cap
