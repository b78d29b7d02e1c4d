"""Dense references for the package's band operators, built from the storage itself.

A band keeps the entry (i, j) at ab[u + i - j, j], with 2u + 1 rows.  These
helpers read each entry off that definition, independently of
``operators.band_product``.
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
    """The dense 2N x 2N matrix of a ``SpinorBand``; a None block is zero."""
    N = next(b for row in X.blocks for b in row if b is not None).shape[1]
    return np.block([[np.zeros((N, N)) if b is None else dense(b) for b in row]
                     for row in X.blocks])
