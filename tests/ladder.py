"""Grid refinement on one domain: a ladder of Problems that differ in N alone.

``build_grid`` reads the point count only to stamp the Grid it returns, so
every rung covers the same [x_min, x_max], and no Dirichlet wall shift
aliases into the observed order.  Each rung solves levels 0..n of the
sigma = +1 channel on its Problem's operators, with room for two more
levels in the domain.
"""

import math

import numpy as np

from ritusfw.clifford import make_rep
from ritusfw.problem import Problem
from ritusfw.spectral_grid import solve_channel


def refinement_ladder(profile, n, N_list):
    """(h, k_n) of the sigma = +1 channel at p_y = 0, e = 1 on each N of N_list."""
    hs, ks = [], []
    for N in N_list:
        ops = Problem(profile, make_rep("first"), p_y=0.0, e=1.0,
                      n_max=n + 2, n_points=N, tol_eig=1e-3).ops
        spec = solve_channel(ops.H[+1], ops.V[+1], ops.grid, +1, n + 1, 1e-3)
        hs.append(ops.h)
        ks.append(float(spec.eigenvalues[n]))
    return hs, ks


def observed_order(hs, errors):
    """The slope of log error against log h, over the rungs with a nonzero error."""
    lh, le = np.array([(math.log(h), math.log(er)) for h, er in zip(hs, errors) if er > 0]).T
    return float(np.polyfit(lh, le, 1)[0])
