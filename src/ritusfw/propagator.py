"""Ritus diagonalization of the fermion propagator.

Per level, the propagator in the Ritus basis is the free-form 2x2 matrix
S(pbar) = (gamma.pbar + m) / (pbar^2 - m^2) at pbar = (p0, 0, sqrt(k)).
The check: factor (gamma.Pi - m) on the grid once at fixed off-shell p0,
solve for the Ritus level columns, take their Dirac-adjoint overlaps, and
compare the diagonal blocks against the free form (the spin projector cuts
the zero-mode block down to its populated slot).  Cross-level blocks must
vanish to quadrature accuracy.

With the spinor components interleaved, gamma.Pi - m is a band matrix of
half-width 5, factored once per p0 by banded Gaussian elimination with
partial pivoting (``GridOperators.dirac_solver``, LAPACK xGBTRF/xGBTRS;
Golub & Van Loan, Matrix Computations, section 4.3): O(N) time and memory
per p0, and deterministic.
"""

from __future__ import annotations

import csv
import math
from typing import Sequence

import numpy as np

from .clifford import GammaRep
from .errors import ArgumentError, ConditioningError, PoleError
from .operators import GridOperators
from .ritus_basis import BarMomentum, RitusLevels, dirac_overlap

__all__ = [
    "diagonal_propagator",
    "project_propagator",
    "pole_sweep",
    "export_pole_sweep_csv",
]


def diagonal_propagator(pbar: BarMomentum, m: float, rep: GammaRep) -> np.ndarray:
    """Closed-form 2x2 propagator S(pbar) = (gamma.pbar + m)/(pbar^2 - m^2).

    Raises PoleError on shell.
    """
    denom = pbar.squared - m * m
    if abs(denom) <= 1e-8:
        raise PoleError(
            f"pbar^2 - m^2 = {denom:.3e} is on shell (|pbar^2 - m^2| <= 1e-8)",
            distance=abs(denom),
        )
    g_pbar = pbar.slash(rep)
    Stilde = (g_pbar + m * np.eye(2)) / denom
    direct = np.linalg.inv(g_pbar - m * np.eye(2))
    if np.abs(Stilde - direct).max() > 1e-12 * max(1.0, np.abs(direct).max()):
        raise AssertionError("closed form disagrees with direct 2x2 inversion")
    return Stilde


def _factor(levels: RitusLevels, p0: float, m: float, operators: GridOperators):
    """The banded solve of (gamma.Pi - m) at p0, refused within 1e-3 of any level's shell."""
    if not levels.grid.same_as(operators.grid):
        raise ArgumentError("levels and operators use different grids")
    E_on = np.sqrt(levels.k + m * m)
    dist = np.abs(abs(p0) - E_on)
    close = np.flatnonzero(dist < 1e-3)
    if close.size:
        n = close[0]
        raise ConditioningError(
            f"p0 = {p0:.6g} is within {dist[n]:.2e} of the on-shell energy "
            f"sqrt(k_{n} + m^2) = {E_on[n]:.6g}; solve too ill-conditioned"
        )
    return operators.dirac_solver(p0, m)


def project_propagator(
    levels: RitusLevels,
    p0: float,
    m: float,
    operators: GridOperators,
) -> dict:
    """Grid-inverted propagator between Ritus levels, as Dirac-adjoint overlaps.

    Returns a dict with the (L, L) array of 2x2 blocks, the worst
    diagonal-block deviation from the free form, and the worst cross-level
    block norm.
    """
    solve = _factor(levels, p0, m, operators)
    E, L = levels.E, len(levels)
    # rows 2i, 2i+1 belong to level i, columns 2j, 2j+1 to level j
    blocks = dirac_overlap(E, solve(E), operators).reshape(L, 2, L, 2).transpose(0, 2, 1, 3)
    diagonal = blocks[np.arange(L), np.arange(L)]

    free = np.array([diagonal_propagator(BarMomentum(p0, pbar.p2), m, operators.rep)
                     for pbar in levels.pbar])
    P = levels.projector.reshape(L, 2)[:, :, None] * np.eye(2)     # each level's Pi(n)
    norms = np.linalg.norm(blocks, axis=(2, 3))
    np.fill_diagonal(norms, 0.0)

    return {
        "blocks": blocks,
        "diagonal_error": float(np.abs(diagonal - P @ free @ P).max()),
        "cross_norm": float(norms.max()),
        "diagonal_norms": [float(np.linalg.norm(block)) for block in diagonal],
        "p0": p0,
    }


def pole_sweep(
    levels: RitusLevels,
    n_target: int,
    m: float,
    operators: GridOperators,
    distances: Sequence[float] = (0.2, 0.1, 0.05, 0.025, 0.0125),
) -> dict:
    """Approach the on-shell energy of one level and fit the pole exponent.

    p0 = sqrt(k_n + m^2) - d for each distance d; fits
    log ||block_nn|| ~ -gamma * log |p0^2 - (k_n + m^2)| and returns gamma
    (expected 1) plus the sweep rows.  Each p0 solves for the target level's
    two columns alone; the conditioning guard still covers every level.
    """
    if not 0 <= n_target < len(levels):
        raise ArgumentError(f"level n={n_target} not among the supplied levels")
    k, Ep = float(levels.k[n_target]), levels.Ep(n_target)
    E_on = math.sqrt(k + m * m)

    rows = []
    for d in distances:
        p0 = E_on - d
        Z = _factor(levels, p0, m, operators)(Ep)
        rows.append({
            "p0": float(p0),
            "n": int(n_target),
            "block_norm": float(np.linalg.norm(dirac_overlap(Ep, Z, operators))),
            "offshellness": abs(p0 * p0 - (k + m * m)),
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
