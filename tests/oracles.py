"""Dense reference forms that the library computes by FFT, kept as test oracles."""

import numpy as np


def dense_fourier_matrix(grid):
    """Unitary grid Fourier map on Euclidean vectors, F[j, k] = exp(-i p_j x_k) / sqrt(n).

    The n x n kernel exp(-i p x) dx / sqrt(2 pi) rescaled by sqrt(dp / dx) for
    the sqrt(dx) embedding, so that F F* = I.
    """
    x = grid.positions()
    p = grid.momenta()
    mat = np.exp(-1j * np.outer(p, x)) * (grid.dx / np.sqrt(2 * np.pi))
    return mat * np.sqrt(grid.dp / grid.dx)
