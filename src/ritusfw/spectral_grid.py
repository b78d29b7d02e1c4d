"""Discretize and solve the channel Hamiltonians H_sigma = -d^2/dx^2 + V_sigma.

The eigenpairs (k_n, phi_n) of the two spin channels are the raw material
for the Ritus construction.  Discretization is fourth-order central
differences with Dirichlet boundaries; the banded symmetric eigenproblem
is solved with LAPACK (scipy.linalg.eig_banded), lowest eigenpairs only.

Grid sizing: the domain covers the classical turning points of the
requested levels (sublevel set of both channel potentials at a harmonic
k-estimate), extended by a padding factor, and further extended until the
WKB decay integral int sqrt(V - k_est) dx exceeds ``decay_exponent`` so
that Dirichlet-wall eigenvalue shifts stay well below the stencil error.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np
from scipy.linalg import eig_banded

from .errors import (
    ArgumentError,
    ConfigurationError,
    DiscretizationError,
    TruncationError,
)
from .field_profiles import FieldProfile, analytic_landau_levels, susy_partner_potentials
from .operators import channel_hamiltonian_banded

__all__ = [
    "Grid",
    "GridConfig",
    "ScalarSpectrum",
    "build_grid",
    "solve_channel",
    "convergence_study",
    "export_spectrum_csv",
    "export_eigenfunction_csv",
]

ZERO_CLAMP = 1e-8  # negative eigenvalues above -ZERO_CLAMP are clamped to 0


@dataclass(frozen=True)
class Grid:
    """Uniform 1D grid with Dirichlet boundaries."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 64:
            raise ConfigurationError(f"grid needs at least 64 points, got {self.n_points}")
        if not self.x_max > self.x_min:
            raise ConfigurationError("grid needs x_max > x_min")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def same_as(self, other: "Grid") -> bool:
        return (
            self.n_points == other.n_points
            and math.isclose(self.x_min, other.x_min, rel_tol=0, abs_tol=1e-12)
            and math.isclose(self.x_max, other.x_max, rel_tol=0, abs_tol=1e-12)
        )


@dataclass(frozen=True)
class GridConfig:
    """Knobs for build_grid."""

    n_points: int = 1024
    padding: float = 1.5
    decay_exponent: float = 10.0  # WKB tail integral target at the walls


@dataclass(frozen=True)
class ScalarSpectrum:
    """Lowest eigenpairs of one spin channel.

    eigenfunctions[:, n] is phi_n on the grid, normalized to 1 under the
    quadrature weight h and phase-fixed (positive value at the global
    maximum of |phi_n|).
    """

    sigma: int
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    grid: Grid
    p_y: float
    e: float
    flags: tuple = ()

    def quadrature_norms(self) -> np.ndarray:
        w = np.full(self.grid.n_points, self.grid.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return np.sqrt(w @ self.eigenfunctions**2)

    def sign_changes(self, n: int) -> int:
        phi = self.eigenfunctions[:, n]
        live = phi[np.abs(phi) > 1e-7 * np.abs(phi).max()]
        return int(np.sum(np.sign(live[1:]) != np.sign(live[:-1])))


def _scan_window(profile: FieldProfile, p_y: float, e: float):
    """Initial bracket for the potential minimum."""
    if profile.kind == "tabulated":
        return profile.domain_hint
    if profile.kind == "uniform":
        B = profile.params["B"]
        center = p_y / (e * B) if e * B != 0 else 0.0
        return center - 1.0, center + 1.0
    return -1.0, 1.0


def build_grid(
    profile: FieldProfile,
    p_y: float,
    n_max: int,
    config: GridConfig = GridConfig(),
    e: float = 1.0,
) -> Grid:
    """Size the grid so levels 0..n_max are resolved in both channels.

    The domain covers {x : V_sigma(x) <= k_estimate} for both channels,
    extended by config.padding, then extended further if the WKB decay
    integral from the k_estimate turning point to the wall falls short of
    config.decay_exponent on either side.
    """
    if n_max < 1:
        raise ConfigurationError(f"n_max must be >= 1, got {n_max}")
    Vp, Vm = susy_partner_potentials(profile, p_y, e)

    lo, hi = _scan_window(profile, p_y, e)
    clip = profile.kind == "tabulated"

    def union_V(x):
        return np.minimum(Vp(x), Vm(x)), np.maximum(Vp(x), Vm(x))

    # widen until the minimum of the sampled potential is interior
    for _ in range(60):
        xs = np.linspace(lo, hi, 4001)
        vmin_curve, _ = union_V(xs)
        i0 = int(np.argmin(vmin_curve))
        if 0 < i0 < xs.size - 1 or clip:
            break
        span = hi - lo
        lo, hi = lo - span, hi + span
    else:
        raise ConfigurationError("could not bracket the potential minimum")

    v_min = float(vmin_curve[i0])
    # local curvature -> harmonic level-spacing estimate
    dx = xs[1] - xs[0]
    j = min(max(i0, 1), xs.size - 2)
    curv = (vmin_curve[j - 1] - 2 * vmin_curve[j] + vmin_curve[j + 1]) / dx**2
    omega = math.sqrt(max(curv, 1e-12) / 2.0)
    k_est = v_min + (2 * (n_max + 1) + 3) * omega

    # sublevel set of the *shallower* channel at k_est, then padding
    def covered(x):
        vlo, vhi = union_V(np.asarray([x]))
        return float(vlo[0]) <= k_est

    xa, xb = xs[i0], xs[i0]
    step = max(dx, 1e-3)
    guard = 0
    while covered(xa - step) and guard < 2_000_000:
        xa -= step
        guard += 1
    while covered(xb + step) and guard < 2_000_000:
        xb += step
        guard += 1
    if guard >= 2_000_000:
        raise ConfigurationError("potential appears unbounded below on the scan range")

    center = 0.5 * (xa + xb)
    half = 0.5 * (xb - xa)
    a = center - config.padding * half
    b = center + config.padding * half

    # WKB check: walls deep enough that int sqrt(V - k_est) from the
    # turning point reaches the target; extend only where padding fell short
    def wkb(turning_point, direction):
        total, x0 = 0.0, turning_point
        while total < config.decay_exponent and abs(x0 - center) < 1e4 * max(half, 1.0):
            x1 = x0 + direction * step
            vlo0, _ = union_V(np.asarray([x0]))
            vlo1, _ = union_V(np.asarray([x1]))
            g0 = math.sqrt(max(float(vlo0[0]) - k_est, 0.0))
            g1 = math.sqrt(max(float(vlo1[0]) - k_est, 0.0))
            total += 0.5 * (g0 + g1) * step
            x0 = x1
        return x0

    if not clip:
        a = min(a, wkb(xa, -1.0))
        b = max(b, wkb(xb, +1.0))
    else:
        lo_t, hi_t = profile.domain_hint
        a, b = max(a, lo_t), min(b, hi_t)

    return Grid(x_min=a, x_max=b, n_points=config.n_points)


def solve_channel(
    profile: FieldProfile,
    p_y: float,
    e: float,
    sigma: int,
    grid: Grid,
    n_levels: int,
    tol_eig: float = 1e-6,
) -> ScalarSpectrum:
    """Lowest ``n_levels`` eigenpairs of -d^2/dx^2 + V_sigma (count semantics).

    Parameters
    ----------
    sigma : +1 or -1, selects the partner potential.
    n_levels : number of eigenpairs (levels 0 .. n_levels-1).
    tol_eig : eigenvalues below -tol_eig abort with DiscretizationError;
        values in (-tol_eig, -1e-8] are kept but flagged; values in
        (-1e-8, 0) are clamped to exactly 0 (zero mode).

    Returns
    -------
    ScalarSpectrum with quadrature-normalized, phase-fixed eigenfunctions.
    """
    if sigma not in (1, -1):
        raise ArgumentError(f"sigma must be +1 or -1, got {sigma}")
    if n_levels < 1:
        raise ArgumentError(f"n_levels must be >= 1, got {n_levels}")
    N = grid.n_points
    if n_levels > N // 4:
        raise TruncationError(f"{n_levels} levels cannot be resolved on {N} points")

    Vp, Vm = susy_partner_potentials(profile, p_y, e)
    V = (Vp if sigma > 0 else Vm)(grid.x)
    ab = channel_hamiltonian_banded(V, grid.h)
    vals, vecs = eig_banded(
        ab, lower=True, select="i", select_range=(0, n_levels - 1),
        overwrite_a_band=True,
    )

    # bound states must sit below the potential at the walls
    v_edge = float(min(V[0], V[-1]))
    if np.any(vals > v_edge):
        bad = int(np.argmax(vals > v_edge))
        raise TruncationError(
            f"level {bad} (k={vals[bad]:.6g}) is above the wall potential "
            f"{v_edge:.6g}; not a resolvable bound state on this grid"
        )

    flags: List[str] = []
    if np.any(vals < -tol_eig):
        raise DiscretizationError(
            f"eigenvalue {vals.min():.3e} below -tol_eig={-tol_eig:.1e}; "
            "discretization inconsistent with a bound-state problem"
        )
    suspect = (vals < -ZERO_CLAMP) & (vals >= -tol_eig)
    if np.any(suspect):
        flags.append(
            f"sigma={sigma}: {int(suspect.sum())} eigenvalue(s) below -{ZERO_CLAMP:.0e} kept un-clamped"
        )
    vals = np.where((vals > -ZERO_CLAMP) & (vals < 0.0), 0.0, vals)

    # normalize under quadrature weight h and fix the sign convention
    vecs = vecs / math.sqrt(grid.h)
    for n in range(vecs.shape[1]):
        peak = np.argmax(np.abs(vecs[:, n]))
        if vecs[peak, n] < 0:
            vecs[:, n] = -vecs[:, n]

    return ScalarSpectrum(
        sigma=sigma,
        eigenvalues=vals,
        eigenfunctions=vecs,
        grid=grid,
        p_y=p_y,
        e=e,
        flags=tuple(flags),
    )


def convergence_study(
    profile: FieldProfile,
    p_y: float,
    e: float,
    sigma: int,
    n: int,
    N_list: Sequence[int],
) -> dict:
    """Refinement study of k_n on a fixed domain.

    Errors are measured against the analytic uniform-field value when
    available, else against the Richardson extrapolation of the finest
    pair.  Returns a dict with rows (N, h, k, error) and observed orders.
    """
    if len(N_list) < 2:
        raise ArgumentError("need at least two grid sizes for a convergence study")
    if sorted(N_list) != list(N_list):
        raise ArgumentError("N_list must be ascending")

    # one fixed, wall-safe domain for every N (otherwise boundary shifts
    # alias into the order estimate)
    domain = build_grid(
        profile, p_y, n_max=n + 2,
        config=GridConfig(n_points=max(N_list), padding=1.5, decay_exponent=12.0),
        e=e,
    )

    ks = []
    for N in N_list:
        g = Grid(domain.x_min, domain.x_max, N)
        spec = solve_channel(profile, p_y, e, sigma, g, n_levels=n + 1, tol_eig=1e-3)
        ks.append(float(spec.eigenvalues[n]))

    if profile.kind == "uniform":
        ref = analytic_landau_levels(e, profile.params["B"], n, sigma)
        ref_source = "analytic"
    else:
        r = (N_list[-1] - 1) / (N_list[-2] - 1)
        ref = (ks[-1] * r**4 - ks[-2]) / (r**4 - 1.0)
        ref_source = "richardson"

    hs = [(domain.x_max - domain.x_min) / (N - 1) for N in N_list]
    errs = [abs(k - ref) for k in ks]

    orders = []
    for i in range(len(N_list) - 1):
        if errs[i] > 0 and errs[i + 1] > 0:
            orders.append(math.log(errs[i] / errs[i + 1]) / math.log(hs[i] / hs[i + 1]))
        else:
            orders.append(float("nan"))

    good = [(math.log(h), math.log(er)) for h, er in zip(hs, errs) if er > 0]
    if len(good) >= 2:
        lh, le = np.array(good).T
        slope = float(np.polyfit(lh, le, 1)[0])
    else:
        slope = float("nan")

    return {
        "n": n,
        "sigma": sigma,
        "reference": float(ref),
        "reference_source": ref_source,
        "rows": [
            {"N": int(N), "h": float(h), "k": float(k), "error": float(er)}
            for N, h, k, er in zip(N_list, hs, ks, errs)
        ],
        "orders": orders,
        "order": slope,
    }


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------


def export_spectrum_csv(spectra: Sequence[ScalarSpectrum], path) -> None:
    """CSV columns sigma,n,k for one or more channels."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["sigma", "n", "k"])
        for spec in spectra:
            for n, k in enumerate(spec.eigenvalues):
                wr.writerow([spec.sigma, n, format(float(k), ".12g")])


def export_eigenfunction_csv(spec: ScalarSpectrum, n: int, path) -> None:
    """CSV columns x,phi for one eigenfunction."""
    if n >= spec.eigenfunctions.shape[1]:
        raise ArgumentError(f"level {n} not stored")
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["x", "phi"])
        for x, v in zip(spec.grid.x, spec.eigenfunctions[:, n]):
            wr.writerow([format(float(x), ".12g"), format(float(v), ".12g")])
