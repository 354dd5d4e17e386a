"""The slow, exact Green matrix used by the tests and by ``verify --check oracle``.

It trades speed for transparency: the Chebyshev identity G.T = U in long
double, with no FFT.
"""

import numpy as np

from .core import GreenMatrix, _grid_degree

__all__ = ["green_matrix_dense_oracle"]


def green_matrix_dense_oracle(N):
    """Green matrix from the identity G.T = U, in long double, rounded once.

    T[k, m] = T_m(x_k) = cos(k m pi/N) interpolates itself for m <= N, so
    G.T = U, where U[k, m] = u_m(x_k), u_m'' = T_m and u_m(+-1) = 0.  For
    m >= 3, u_m = T_{m+2}/(4(m+1)(m+2)) - T_m/(2(m^2-1)) + T_{m-2}/(4(m-1)(m-2))
    less the line through its end values.  T's inverse is the DCT-I
    (2/N) W T W, W = diag(1/2, 1, ..., 1, 1/2), so G = (2/N) (U W) T W.
    """
    N = _grid_degree(N)
    LD = np.longdouble
    cosines = np.cos(np.arccos(LD(-1)) * np.arange(2 * N, dtype=LD) / N)
    j = np.arange(3, N + 1)
    T = cosines[np.multiply.outer(np.arange(N + 1), np.arange(N + 3)) % (2 * N)]  # T_0..T_{N+2}
    x, m = T[:, 1], j.astype(LD)
    # the general form divides by zero for m = 0, 1 and 2
    U = np.column_stack([(x * x - 1) / 2, (x**3 - x) / 6, x**4 / 6 - x * x / 2 + LD(1) / 3,
                         T[:, j + 2] / (4 * (m + 1) * (m + 2)) - T[:, j] / (2 * (m * m - 1))
                         + T[:, j - 2] / (4 * (m - 1) * (m - 2))])[:, :N + 1]
    U -= np.multiply.outer((1 + x) / 2, U[0]) + np.multiply.outer((1 - x) / 2, U[N])
    w = np.ones(N + 1, dtype=LD)
    w[[0, N]] = LD(0.5)
    G = np.zeros((N + 1, N + 1), dtype=LD)
    G[1:N] = (LD(2) / N) * ((U[1:N] * w) @ T[:, :N + 1]) * w
    return GreenMatrix(G)

