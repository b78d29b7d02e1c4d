"""Static magnetic field profiles in the Landau-like gauge A^mu = (0, 0, W(x)).

The magnetic field is B(x) = W'(x).  Three kinds are supported:

* uniform:      W(x) = B x              (W' = B)
* exponential:  W(x) = (B/alpha)(1 - e^{-alpha x})   (W' = B e^{-alpha x})
* tabulated:    cubic-spline interpolation of samples (x_i, W_i)

The supersymmetric partner potentials entering the squared spatial Dirac
operator are V_sigma(x) = (p_y - e W(x))^2 - sigma e W'(x).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

from .errors import ArgumentError, DomainError, UnsupportedProfileError

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline

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
    _spline: Optional[CubicSpline] = field(default=None, repr=False, compare=False)


def uniform_profile(B: float = 1.0) -> FieldProfile:
    """W(x) = B x, constant field B."""
    return FieldProfile(kind="uniform", params={"B": float(B)})


def exponential_profile(B: float = 1.0, alpha: float = 0.1) -> FieldProfile:
    """W(x) = (B/alpha)(1 - e^{-alpha x}), decaying field B e^{-alpha x}."""
    if alpha == 0.0:
        raise ArgumentError("alpha must be nonzero; use the uniform kind instead")
    return FieldProfile(kind="exponential", params={"B": float(B), "alpha": float(alpha)})


def tabulated_profile(x: np.ndarray, W: np.ndarray) -> FieldProfile:
    """Profile from samples; W is cubic-spline interpolated, W' is the spline derivative."""
    # imported here: scipy.interpolate costs more to import than a default run's numerics
    from scipy.interpolate import CubicSpline

    x = np.asarray(x, dtype=float)
    W = np.asarray(W, dtype=float)
    if x.ndim != 1 or x.shape != W.shape or x.size < 4:
        raise ArgumentError("tabulated profile needs matching 1D arrays with >= 4 samples")
    if not np.all(np.diff(x) > 0):
        raise ArgumentError("tabulated x samples must be strictly increasing")
    spline = CubicSpline(x, W)
    return FieldProfile(
        kind="tabulated",
        params={"x": x, "W": W},
        domain_hint=(float(x[0]), float(x[-1])),
        _spline=spline,
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
        return profile._spline(x), profile._spline(x, 1)
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
