"""Discretize and solve the channel Hamiltonians H_sigma = -d^2/dx^2 + V_sigma.

The eigenpairs (k_n, phi_n) of the two spin channels are the raw material
for the Ritus construction.  Discretization is fourth-order central
differences with Dirichlet boundaries, one symmetric pentadiagonal band per
channel (``GridOperators.H``).  Its lowest eigenpairs come from Lanczos in
shift-invert mode with full reorthogonalization and thick restarts
(``_shift_invert_lanczos``; Ericsson & Ruhe, Math. Comp. 35, 1980, 1251; Wu
& Simon, SIAM J. Matrix Anal. Appl. 22, 2000, 602).  The shift sits just below min V: the discrete
-D2 is positive definite, so every eigenvalue lies above min V and the
lowest levels are the largest of (H - shift)^-1.  H - shift is therefore
symmetric positive definite, and (H - shift)^-1 is applied through a banded
Cholesky factorization (LAPACK xPBTRF/xPBTRS) of its three upper
diagonals.  The start vector v0 is a fixed seeded Gaussian vector, so runs
are deterministic; it has no mirror symmetry, so it overlaps the odd states
of a symmetric well.  A Lanczos step costs O(N) for the band solve and
O(N m) to reorthogonalize against the m vectors of the basis.

Zero mode: an eigenvalue within the rounding bound
ZERO_ROUNDING * eps * ||H||, with ||H|| <= 16/(3h^2) + max|V| from the
stencil, is an exact zero mode up to rounding and is set to 0; so is a
slightly negative one inside the truncation window (-ZERO_CLAMP, 0).

Grid sizing: ``build_grid`` reads the field and n_max, never N, and returns
the Domain; a Grid is that domain and a point count N, so every N of one
field shares its walls.  The domain covers the classical turning points of the
requested levels (sublevel set of both channel potentials at a harmonic
k-estimate, kept below the exponential field's plateau), widened by the
factor PADDING about its center, and further extended until the WKB decay
integral int sqrt(V - k_est) dx exceeds DECAY_EXPONENT so that
Dirichlet-wall eigenvalue shifts stay well below the stencil error.
Both walks step along one lattice x0 +- k*step, sampled in doubling chunks
of vectorized potential calls.  Every length of the sizing is a multiple of
the field's length ell (``field_profiles.field_scales``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import (
    ArgumentError,
    ConfigurationError,
    DiscretizationError,
    TruncationError,
)
from .field_profiles import FieldProfile, channel_potentials, field_scales

__all__ = [
    "Domain",
    "Grid",
    "ScalarSpectrum",
    "build_grid",
    "solve_channel",
]

PADDING = 1.5  # the sublevel set is widened by this factor about its center
DECAY_EXPONENT = 10.0  # WKB tail integral target at the walls
ZERO_CLAMP = 1e-8  # negative eigenvalues above -ZERO_CLAMP are clamped to 0
ZERO_ROUNDING = 16  # |k| <= ZERO_ROUNDING * eps * ||H|| is clamped to 0
SHIFT_GAP = 1e-2  # relative distance of the Lanczos shift below min V
PHASE_THRESHOLD = 1e-3  # phi_n is positive at its first sample above this fraction of its peak
KRYLOV_PER_LEVEL = 2  # the Lanczos basis holds at most this many vectors per level ...
KRYLOV_EXTRA = 30  # ... plus this many
LANCZOS_RESTARTS = 20  # thick restarts before a solve is declared unconverged
_GUARD = 2_000_000  # lattice steps the two sublevel walks may take together
_CHUNK = 256  # first chunk of a lattice walk; each later chunk doubles ...
_CHUNK_MAX = 1 << 17  # ... up to this many points


@dataclass(frozen=True)
class Domain:
    """The walls [x_min, x_max] that ``build_grid`` sizes, in the field's length ``length``."""

    x_min: float
    x_max: float
    length: float

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ConfigurationError("grid needs x_max > x_min")


@dataclass(frozen=True)
class Grid:
    """Uniform 1D grid of n_points with Dirichlet walls at the domain's edges."""

    domain: Domain
    n_points: int

    def __post_init__(self):
        if self.n_points < 64:
            raise ConfigurationError(f"grid needs at least 64 points, got {self.n_points}")

    @property
    def h(self) -> float:
        return (self.domain.x_max - self.domain.x_min) / (self.n_points - 1)

    @property
    def x(self) -> np.ndarray:
        """The N points; a grid too large to hold is a ConfigurationError naming N."""
        try:
            return np.linspace(self.domain.x_min, self.domain.x_max, self.n_points)
        except (MemoryError, ValueError) as exc:  # numpy's allocation or size refusal
            raise ConfigurationError(
                f"grid N = {self.n_points} points cannot be allocated: {exc}") from None


@dataclass(frozen=True)
class ScalarSpectrum:
    """Lowest eigenpairs of one spin channel.

    eigenfunctions[:, n] is phi_n on the grid, normalized to 1 under the
    quadrature weight h and phase-fixed: positive at the first sample from
    the left where |phi_n| exceeds PHASE_THRESHOLD times its peak.  That
    sample lies in the left tail, where rounding cannot flip the sign; the
    global peak would not do, since the mirror peaks of an odd state in a
    symmetric well tie up to rounding.  The Hamiltonian the pairs solve is
    the grid operators' H[sigma].
    """

    sigma: int
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    flags: tuple = ()


def _lattice(x0: float, step: float, n: int) -> np.ndarray:
    """x0 and the n points after it on x0 + k*step, summed in a scalar walk's order."""
    return np.cumsum(np.concatenate(([x0], np.full(n, step))))


def _sublevel_walk(vmin, k_est, x0, step, budget, domain):
    """Step from x0 while vmin <= k_est, at most ``budget`` steps.

    Returns (last covered point, steps taken).  The walk also stops at the
    last lattice point inside ``domain``, so the point one step past the one
    returned lies outside it exactly when the sublevel set reaches its edge.
    """
    taken, chunk = 0, _CHUNK
    while taken < budget:
        xs = _lattice(x0, step, min(chunk, budget - taken))[1:]
        outside = np.flatnonzero((xs < domain[0]) | (xs > domain[1]))
        n_in = int(outside[0]) if outside.size else xs.size
        stop = np.flatnonzero(~(vmin(xs[:n_in]) <= k_est))
        i = int(stop[0]) if stop.size else n_in
        if i < xs.size:
            return (xs[i - 1] if i else x0), taken + i
        x0, taken = xs[-1], taken + xs.size
        chunk = min(2 * chunk, _CHUNK_MAX)
    return x0, taken


def _wkb_walk(vmin, k_est, x0, direction, step, target, lo, hi):
    """Step from the turning point x0 until int sqrt(V - k_est) dx reaches
    ``target`` or x leaves (lo, hi); returns the point reached and the
    integral there.

    The integral is the sequential cumulative trapezoid of a scalar walk.
    The potential is evaluated at points clipped to [lo, hi], so a walk
    bounded by a table's edge never samples outside the table.
    """
    total, chunk = 0.0, _CHUNK
    while True:
        xs = _lattice(x0, direction * step, chunk)
        g = np.sqrt(np.maximum(vmin(np.clip(xs, lo, hi)) - k_est, 0.0))
        totals = np.cumsum(np.concatenate(([total], 0.5 * (g[:-1] + g[1:]) * step)))
        stop = np.flatnonzero(~((totals < target) & (xs > lo) & (xs < hi)))
        if stop.size:
            return xs[stop[0]], totals[stop[0]]
        x0, total = xs[-1], totals[-1]
        chunk = min(2 * chunk, _CHUNK_MAX)


# a field too strong for floats samples an inf or nan potential, refused without a warning
@np.errstate(over="ignore", invalid="ignore")
def build_grid(
    profile: FieldProfile,
    p_y: float,
    n_max: int,
    e: float = 1.0,
) -> Domain:
    """Size the domain on which levels 0..n_max are resolved in both channels.

    The domain covers {x : V_sigma(x) <= k_estimate} for both channels,
    widened by PADDING, then extended further if the WKB decay integral
    from the k_estimate turning point to the wall falls short of
    DECAY_EXPONENT on either side.  The minimum is sampled on x0 +- ell, and
    the walks step at least 1e-3 ell.  The profile's domain bounds the grid:
    if a table ends inside the sublevel set, or before the integral reaches
    the target, TruncationError names the edge.  ConfigurationError
    refuses what ``field_scales`` refuses, a k_estimate that overflows, and
    a sublevel set wider than _GUARD steps.
    """
    if n_max < 1:
        raise ConfigurationError(f"n_max must be >= 1, got {n_max}")
    (lo, hi), ell, cap = field_scales(profile, e, p_y, n_max)
    domain = profile.domain

    def vmin(x):
        # the shallower channel's potential, from one (W, W')
        _, Vp, Vm = channel_potentials(profile, p_y, e, x)
        return np.minimum(Vp, Vm)

    xs = np.linspace(lo, hi, 4001)
    vmin_curve = vmin(xs)
    i0 = int(np.argmin(vmin_curve))
    v_min = float(vmin_curve[i0])
    # local curvature -> harmonic level-spacing estimate
    dx = xs[1] - xs[0]
    j = min(max(i0, 1), xs.size - 2)
    curv = (vmin_curve[j - 1] - 2 * vmin_curve[j] + vmin_curve[j + 1]) / dx**2
    omega = math.sqrt(max(curv, 0.0) / 2.0)
    k_est = min(v_min + (2 * (n_max + 1) + 3) * omega, cap)
    if not math.isfinite(k_est):
        what = (f"its curvature V'' = {curv:.6g} at the sampled minimum V = {v_min:.6g}"
                if math.isfinite(v_min) and not math.isfinite(curv) else
                f"V = {v_min:.6g} at its sampled minimum")
        raise ConfigurationError(f"the field's potential overflows: {what} gives the level "
                                 f"estimate k_est = {k_est:.6g} for n_max = {n_max}")

    # sublevel set of the *shallower* channel at k_est, then padding; both
    # walks stay on the lattice xs[i0] +- k*step and share one step budget
    step = max(dx, 1e-3 * ell)
    xa, left = _sublevel_walk(vmin, k_est, xs[i0], -step, _GUARD, domain)
    xb, right = _sublevel_walk(vmin, k_est, xs[i0], step, _GUARD - left, domain)
    if xa - step < domain[0] or xb + step > domain[1]:
        edge = domain[0] if xa - step < domain[0] else domain[1]
        raise TruncationError(
            f"the table ends at x = {edge:.6g}, inside the sublevel set V <= k_est = "
            f"{k_est:.6g} of levels 0..{n_max}: extend the table"
        )
    if left + right >= _GUARD:
        # only a sublevel set too wide to walk gets here: a uniform field at an absurd n_max
        raise ConfigurationError(
            f"the sublevel set V <= k_est = {k_est:.6g} of levels 0..{n_max} spans more than "
            f"{_GUARD:,} grid steps of {step:.3g} (from x = {xa:.6g} to {xb:.6g} when the "
            "walks stopped): too wide to size a grid"
        )

    center = 0.5 * (xa + xb)
    half = 0.5 * (xb - xa)
    a = center - PADDING * half
    b = center + PADDING * half

    # WKB check: walls deep enough that int sqrt(V - k_est) from the
    # turning point reaches the target; extend only where padding fell short.
    # The walks stop at the domain's edges, and there must reach the target.
    reach = 1e4 * max(half, ell)
    lo, hi = max(center - reach, domain[0]), min(center + reach, domain[1])
    target = DECAY_EXPONENT
    wall_a, decay_a = _wkb_walk(vmin, k_est, xa, -1.0, step, target, lo, hi)
    wall_b, decay_b = _wkb_walk(vmin, k_est, xb, +1.0, step, target, lo, hi)
    edge, decay = (lo, decay_a) if decay_a < decay_b else (hi, decay_b)
    if decay < target and edge in domain:
        raise TruncationError(
            f"the table ends at x = {edge:.6g}, where the WKB decay int sqrt(V - k_est) dx "
            f"reaches {decay:.3g} of the decay target {target:.3g} that levels "
            f"0..{n_max} need: extend the table"
        )
    a, b = max(min(a, wall_a), domain[0]), min(max(b, wall_b), domain[1])

    return Domain(x_min=a, x_max=b, length=ell)


def solve_channel(
    H: np.ndarray,
    V: np.ndarray,
    grid: Grid,
    sigma: int,
    n_levels: int,
    tol_eig: float = 1e-6,
) -> ScalarSpectrum:
    """Lowest ``n_levels`` eigenpairs of one channel's H = -d^2/dx^2 + V (count semantics).

    Parameters
    ----------
    H, V : the channel's band, as ``channel_hamiltonian(V, grid.h)`` returns it
        (``GridOperators.H[sigma]``), and its potential; grid : the grid they
        live on, whose step and field length the solve reads.
    sigma : +1 or -1, the channel the spectrum and its flags name.
    n_levels : number of eigenpairs (levels 0 .. n_levels-1).
    tol_eig : eigenvalues below -tol_eig abort with DiscretizationError;
        values in (-ZERO_CLAMP, 0) or within the rounding bound
        ZERO_ROUNDING * eps * (16/(3h^2) + max|V|) of 0 are clamped to
        exactly 0 (zero mode); other values within tol_eig of 0 are kept
        but flagged.

    Returns
    -------
    ScalarSpectrum with quadrature-normalized, phase-fixed eigenfunctions.
    """
    from scipy.linalg.lapack import dpbtrf

    if sigma not in (1, -1):
        raise ArgumentError(f"sigma must be +1 or -1, got {sigma}")
    if n_levels < 1:
        raise ArgumentError(f"n_levels must be >= 1, got {n_levels}")
    N, h = V.size, grid.h
    if n_levels > N // 4:
        raise TruncationError(f"{n_levels} levels cannot be resolved on {N} points")

    # -D2 is positive definite, so every eigenvalue lies above min V and the
    # lowest levels are the largest eigenvalues of (H - shift)^-1; the gap is
    # SHIFT_GAP at least in the field's energy unit 1/length^2
    v_min = float(V.min())
    shift = v_min - SHIFT_GAP * max(grid.domain.length ** -2, abs(v_min))
    v0 = np.random.default_rng(0).standard_normal(N)
    band = H[:3].copy()                 # the upper storage xPBTRF takes
    band[2] -= shift
    chol, info = dpbtrf(band, overwrite_ab=True)
    if info != 0:
        raise DiscretizationError(
            f"H - shift is not positive definite (banded Cholesky info {info}) at "
            f"shift {shift:.6g} below min V = {v_min:.6g}"
        )
    basis = min(N, KRYLOV_PER_LEVEL * n_levels + KRYLOV_EXTRA)
    vals, vecs = _shift_invert_lanczos(chol, shift, v0, n_levels, basis, LANCZOS_RESTARTS)

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
    # rounding bound of an exact zero mode, with ||H|| bounded from the stencil
    bound = ZERO_ROUNDING * np.finfo(float).eps * (16.0 / (3.0 * h**2) + float(np.abs(V).max()))
    clamp = (np.abs(vals) <= bound) | ((vals > -ZERO_CLAMP) & (vals < 0.0))
    below = ~clamp & (vals < 0.0)
    above = ~clamp & (vals > 0.0) & (vals <= tol_eig)
    if np.any(below):
        flags.append(
            f"sigma={sigma}: {int(below.sum())} eigenvalue(s) below "
            f"-{max(ZERO_CLAMP, bound):.0e} kept un-clamped"
        )
    if np.any(above):
        flags.append(
            f"sigma={sigma}: {int(above.sum())} eigenvalue(s) in ({bound:.1e}, {tol_eig:.0e}] "
            "kept un-clamped: above the zero-mode rounding bound"
        )
    vals = np.where(clamp, 0.0, vals)

    # normalize under quadrature weight h and fix the sign convention
    vecs = vecs / math.sqrt(h)
    mags = np.abs(vecs)
    first = np.argmax(mags > PHASE_THRESHOLD * mags.max(axis=0), axis=0)
    vecs = vecs * np.where(vecs[first, np.arange(vecs.shape[1])] < 0, -1.0, 1.0)

    return ScalarSpectrum(sigma=sigma, eigenvalues=vals, eigenfunctions=vecs, flags=tuple(flags))


def _shift_invert_lanczos(chol: np.ndarray, shift: float, v0: np.ndarray, k: int,
                          m: int, restarts: int):
    """The k lowest eigenpairs of H, by Lanczos on (H - shift)^-1.

    chol is the banded Cholesky factor of the positive definite H - shift
    (xPBTRS applies the inverse), so the wanted pairs are the k largest
    Ritz pairs (theta, y) of (H - shift)^-1, and H's eigenvalues are
    shift + 1/theta (Ericsson & Ruhe, Math. Comp. 35, 1980, 1251).  Each new
    vector loses its known couplings, then its components along the whole
    basis (full reorthogonalization), so no Ritz value repeats.

    A pair is converged when its residual norm beta |s_j| (beta the newest
    off-diagonal of the projected matrix T, s_j the last component of the
    pair's eigenvector of T) is at most eps * theta: ARPACK's test at
    tol = 0.  The test first runs when the basis holds k vectors, and then
    waits log10 of the worst ratio beta |s_j| / (eps * theta) steps: a step
    has cut that ratio by less than a decade in every solve measured.

    The basis holds at most m vectors.  When it fills, a thick restart (Wu &
    Simon, SIAM J. Matrix Anal. Appl. 22, 2000, 602) keeps the k wanted
    Ritz vectors and the last Lanczos vector, and T becomes diag(theta)
    bordered by beta s_j; until the first restart T is tridiagonal.
    Returns (eigenvalues, unit eigenvectors as columns), lowest eigenvalue
    first; raises DiscretizationError after ``restarts`` restarts, or when a
    new vector's norm beta is not a positive finite number (a breakdown).
    """
    from scipy.linalg import eigh, eigh_tridiagonal
    from scipy.linalg.lapack import dpbtrs

    eps = np.finfo(float).eps
    Q = np.empty((m + 1, v0.size))  # the basis, one vector per row
    T = np.zeros((m, m))
    Q[0] = v0 / np.linalg.norm(v0)
    start, check, done = 0, k - 1, 0
    for cycle in range(restarts + 1):
        for j in range(start, m):
            w = dpbtrs(chol, Q[j])[0]
            known = 0 if j == start else j - 1  # after a restart, the whole border
            w -= T[known:j, j] @ Q[known:j]
            alpha = Q[j] @ w
            w -= alpha * Q[j]
            c = Q[:j + 1] @ w
            w -= c @ Q[:j + 1]
            T[j, j] = alpha + c[j]
            beta = float(np.linalg.norm(w))
            if not (0.0 < beta < math.inf):
                raise DiscretizationError(f"shift-invert Lanczos broke down at step {j}: "
                                          f"the new vector's norm is {beta:.3g}")
            Q[j + 1] = w / beta
            if j + 1 < m:
                T[j, j + 1] = T[j + 1, j] = beta
            if j < check and j + 1 < m:
                continue
            if cycle == 0:
                theta, S = eigh_tridiagonal(np.diag(T)[:j + 1], np.diag(T, 1)[:j])
            else:
                theta, S = eigh(T[:j + 1, :j + 1])
            theta, S = theta[:-k - 1:-1], S[:, :-k - 1:-1]
            ratio = beta * np.abs(S[j]) / (eps * theta)
            done = int(np.sum(ratio <= 1.0))
            if done == k:
                return shift + 1.0 / theta, Q[:j + 1].T @ S
            check = j + max(1, int(np.log10(ratio.max())))
        # thick restart: the k wanted Ritz vectors, then the last Lanczos vector
        Q[:k] = S.T @ Q[:m]
        Q[k] = Q[m]
        T[:] = 0.0
        T[np.arange(k), np.arange(k)] = theta
        T[:k, k] = T[k, :k] = beta * S[m - 1]
        start = check = k
    raise DiscretizationError(
        f"shift-invert Lanczos did not converge for {k} levels: {done} of {k} Ritz pairs "
        f"met the tolerance after {restarts} thick restarts of a {m}-vector basis"
    )
