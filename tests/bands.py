"""Dense references for the package's band operators and levels, built from the storage itself.

A band keeps the entry (i, j) at ab[u + i - j, j], with 2u + 1 rows.  These
helpers read each entry off that definition, independently of
``operators.band_product``.  X is held as its two cross-slot bands, X[s]
its block (s, 1 - s); ``dense_spinor`` lays them out as the dense 2N x 2N X
in the block spinor order.  The levels are held as two (N, L) slot blocks
F[s]; ``dense_E`` lays them out as the (2N, 2L) matrix E = [E_0 | E_1 | ...]
that the dense references read.
"""

import numpy as np


def dense(ab):
    """The dense n x n matrix of a band in general storage."""
    n = ab.shape[1]
    u = ab.shape[0] // 2
    A = np.zeros((n, n))
    for d in range(-u, u + 1):  # column offset j - i
        i = np.arange(max(-d, 0), n - max(d, 0))
        A[i, i + d] = ab[u - d, i + d]
    return A


def dense_spinor(X):
    """The dense 2N x 2N matrix [[0, X[0]], [X[1], 0]] of the cross-slot band pair X."""
    Z = np.zeros((X[0].shape[1],) * 2)
    return np.block([[Z, dense(X[0])], [dense(X[1]), Z]])


def g0_diagonal(ops):
    """The +/-1 diagonal of gamma^0 (x) 1_N, length 2N in the block spinor order."""
    return np.repeat(np.diag(ops.rep.gamma[0]).real, ops.grid.n_points)


def dense_E(levels, n=slice(None)):
    """The levels n's E_p side by side, (2N, 2l) in Fortran order.

    Column 2i + s is level i's function on spinor slot s: F[s][:, i] in the
    rows of slot s, zero in the other slot's.
    """
    F = [f[:, n] for f in levels.F]
    N, L = F[0].shape
    E = np.zeros((2 * N, 2 * L), order="F")
    for s, f in enumerate(F):
        E[s * N:(s + 1) * N, s::2] = f
    return E


def Ep(levels, n):
    """Level n's (2N, 2) E_p."""
    return dense_E(levels, slice(n, n + 1))
