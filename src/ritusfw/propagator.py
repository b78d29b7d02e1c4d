"""Ritus diagonalization of the fermion propagator.

Per level, the propagator in the Ritus basis is the free-form 2x2 matrix
S(pbar) = (gamma.pbar + m) / (pbar^2 - m^2) at pbar = (p0, 0, sqrt(k)).
The check: factor the sparse (gamma.Pi - m) on the grid once at fixed
off-shell p0 (SuperLU), solve for the Ritus level columns, sandwich, and compare the diagonal blocks against
the free form (the spin projector cuts the zero-mode block down to its
populated slot).  Cross-level blocks must vanish to quadrature accuracy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .clifford import GammaRep
from .errors import ArgumentError, ConditioningError, PoleError
from .field_profiles import FieldProfile
from .operators import GridOperators
from .ritus_basis import BarMomentum, RitusLevel
from .spectral_grid import Grid

__all__ = [
    "DiagonalPropagator",
    "diagonal_propagator",
    "project_propagator",
    "pole_sweep",
    "export_pole_sweep_csv",
]


@dataclass(frozen=True)
class DiagonalPropagator:
    """Free-form level propagator S(pbar) = (gamma.pbar + m)/(pbar^2 - m^2)."""

    pbar: BarMomentum
    m: float
    Stilde: np.ndarray


def diagonal_propagator(pbar: BarMomentum, m: float, rep: GammaRep) -> DiagonalPropagator:
    """Closed-form 2x2 propagator at pbar; raises PoleError on shell."""
    denom = pbar.squared - m * m
    if abs(denom) <= 1e-8:
        raise PoleError(
            f"pbar^2 - m^2 = {denom:.3e} is on shell (|pbar^2 - m^2| <= 1e-8)",
            distance=abs(denom),
        )
    g_pbar = pbar.p0 * rep.gamma[0] - pbar.p2 * rep.gamma[2]
    Stilde = (g_pbar + m * np.eye(2)) / denom
    direct = np.linalg.inv(g_pbar - m * np.eye(2))
    if np.abs(Stilde - direct).max() > 1e-12 * max(1.0, np.abs(direct).max()):
        raise AssertionError("closed form disagrees with direct 2x2 inversion")
    return DiagonalPropagator(pbar=pbar, m=m, Stilde=Stilde)


def _conditioning_guard(levels: Sequence[RitusLevel], p0: float, m: float) -> None:
    for lv in levels:
        E_on = math.sqrt(lv.k + m * m)
        dist = abs(abs(p0) - E_on)
        if dist < 1e-3:
            raise ConditioningError(
                f"p0 = {p0:.6g} is within {dist:.2e} of the on-shell energy "
                f"sqrt(k_{lv.n} + m^2) = {E_on:.6g}; solve too ill-conditioned"
            )


def project_propagator(
    profile: FieldProfile,
    grid: Grid,
    levels: Sequence[RitusLevel],
    p0: float,
    m: float,
    rep: GammaRep,
    e: float = 1.0,
    operators: Optional[GridOperators] = None,
) -> dict:
    """Grid-inverted propagator sandwiched between Ritus levels.

    Returns a dict with the (L, L) array of 2x2 blocks, the worst
    diagonal-block deviation from the free form, and the worst cross-level
    block norm.
    """
    if not levels:
        raise ArgumentError("need at least one level")
    for lv in levels:
        if not lv.grid.same_as(grid):
            raise ArgumentError("levels must live on the given grid")
    _conditioning_guard(levels, p0, m)

    ops = operators or GridOperators(rep, profile, levels[0].p_y, e, grid)
    N = grid.n_points
    h = grid.h

    # (gamma.Pi - m), real and sparse; SuperLU's fill-reducing ordering is
    # a fixed function of the sparsity pattern, so the solve is deterministic
    K = ops.gamma_dot_pi(p0) - m * sp.identity(2 * N, format="csr")
    cols = np.hstack([lv.Ep for lv in levels])        # (2N, 2L), real
    Z = splu(K.tocsc()).solve(np.real(cols))

    G0diag = ops.g0diag
    g0 = rep.gamma[0]

    L = len(levels)
    blocks = np.zeros((L, L, 2, 2), dtype=complex)
    for i, lv_i in enumerate(levels):
        Ei = lv_i.Ep
        for j in range(L):
            Zj = Z[:, 2 * j:2 * j + 2]
            blocks[i, j] = g0 @ (h * (Ei.conj().T @ (G0diag[:, None] * Zj)))

    diag_err = 0.0
    diag_norms = []
    for i, lv in enumerate(levels):
        pbar = BarMomentum(p0=p0, p1=0.0, p2=math.sqrt(max(lv.k, 0.0)), E_D=math.sqrt(lv.k + m * m))
        free = diagonal_propagator(pbar, m, rep).Stilde
        P = lv.projector.matrix
        target = P @ free @ P
        diag_err = max(diag_err, float(np.abs(blocks[i, i] - target).max()))
        diag_norms.append(float(np.linalg.norm(blocks[i, i])))

    cross = 0.0
    for i in range(L):
        for j in range(L):
            if i != j:
                cross = max(cross, float(np.linalg.norm(blocks[i, j])))

    return {
        "blocks": blocks,
        "diagonal_error": diag_err,
        "cross_norm": cross,
        "diagonal_norms": diag_norms,
        "p0": p0,
    }


def pole_sweep(
    profile: FieldProfile,
    grid: Grid,
    levels: Sequence[RitusLevel],
    n_target: int,
    m: float,
    rep: GammaRep,
    distances: Sequence[float] = (0.2, 0.1, 0.05, 0.025, 0.0125),
    e: float = 1.0,
    operators: Optional[GridOperators] = None,
) -> dict:
    """Approach the on-shell energy of one level and fit the pole exponent.

    p0 = sqrt(k_n + m^2) - d for each distance d; fits
    log ||block_nn|| ~ -gamma * log |p0^2 - (k_n + m^2)| and returns gamma
    (expected 1) plus the sweep rows.  Pass ``operators`` to reuse the grid
    operators of the levels.
    """
    target = next((lv for lv in levels if lv.n == n_target), None)
    if target is None:
        raise ArgumentError(f"level n={n_target} not among the supplied levels")
    E_on = math.sqrt(target.k + m * m)

    ops = operators or GridOperators(rep, profile, levels[0].p_y, e, grid)
    rows = []
    for d in distances:
        p0 = E_on - d
        res = project_propagator(profile, grid, levels, p0, m, rep, e=e, operators=ops)
        i = list(levels).index(target)
        rows.append({
            "p0": float(p0),
            "n": int(n_target),
            "block_norm": float(np.linalg.norm(res["blocks"][i, i])),
            "offshellness": abs(p0 * p0 - (target.k + m * m)),
        })

    lx = np.log([r["offshellness"] for r in rows])
    ly = np.log([r["block_norm"] for r in rows])
    gamma = -float(np.polyfit(lx, ly, 1)[0])
    return {"rows": rows, "exponent": gamma, "E_on": E_on, "n": n_target}


def export_pole_sweep_csv(sweep: dict, path) -> None:
    """CSV columns p0,n,block_norm."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["p0", "n", "block_norm"])
        for r in sweep["rows"]:
            wr.writerow([
                format(r["p0"], ".12g"),
                r["n"],
                format(r["block_norm"], ".12g"),
            ])
