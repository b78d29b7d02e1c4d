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
which loads about two hundred more scipy modules.

The supersymmetric partner potentials entering the squared spatial Dirac
operator are V_sigma(x) = (p_y - e W(x))^2 - sigma e W'(x).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.linalg import solve_banded

from .errors import ArgumentError, DomainError, UnsupportedProfileError

__all__ = [
    "FieldProfile",
    "uniform_profile",
    "exponential_profile",
    "tabulated_profile",
    "load_tabulated_csv",
    "evaluate_potential",
    "susy_partner_potentials",
    "analytic_landau_levels",
]


@dataclass(frozen=True)
class FieldProfile:
    """Gauge function W(x) and its parameters."""

    kind: str                      # "uniform" | "exponential" | "tabulated"
    params: dict
    domain_hint: Optional[Tuple[float, float]] = None
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
        domain_hint=(float(x[0]), float(x[-1])),
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
        lo, hi = profile.domain_hint
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


def susy_partner_potentials(profile: FieldProfile, p_y: float, e: float):
    """Partner potentials V_sigma(x) = (p_y - e W(x))^2 - sigma e W'(x).

    Returns (V_plus, V_minus): callables accepting scalar or array x.
    sigma = +1 maps to the upper spinor component (gamma^0 = sigma_3 ordering).
    """

    def make(sigma: int) -> Callable:
        def V(x):
            W, Wp = evaluate_potential(profile, x)
            return (p_y - e * W) ** 2 - sigma * e * Wp

        return V

    return make(+1), make(-1)


def analytic_landau_levels(e: float, B: float, n: int, sigma: int) -> float:
    """Closed-form eigenvalue of the uniform-field channel Hamiltonian.

    k = (2n + 1)|eB| - sigma * sign(eB) * |eB|, so the sigma = sign(eB)
    channel carries the zero mode (n = 0 -> k = 0) and levels 2n|eB|.
    """
    if n < 0:
        raise ArgumentError(f"level must be non-negative, got {n}")
    if sigma not in (1, -1):
        raise ArgumentError(f"sigma must be +1 or -1, got {sigma}")
    eB = e * B
    if eB == 0.0:
        raise UnsupportedProfileError("analytic levels require eB != 0")
    return (2 * n + 1) * abs(eB) - sigma * np.sign(eB) * abs(eB)
