"""Slow, transparent references that only the tests compare the package with.

Barycentric weights by the defining product, the DCT-I as a literal cosine
sum, the coefficient-to-node transform on any grid length, which the
fold-free references use to evaluate on the degree-2N grid, and the Green
matrix from its defining identity in long double.
"""

import numpy as np

from chebgreen.core import GreenMatrix, _grid_degree, _require_finite, _scale_ends, dct1

_MAX_GENERAL_POINTS = 40  # product magnitudes leave the safe range beyond this


def barycentric_weights_general(points):
    """Barycentric weights of distinct finite points by the defining product."""
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need at least two points")
    _require_finite(x, "points")
    if x.size > _MAX_GENERAL_POINTS:
        raise ValueError(f"product formula limited to {_MAX_GENERAL_POINTS} points")
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, 1.0)
    if np.any(d == 0.0):
        raise ValueError("points must be pairwise distinct")
    return 1.0 / d.prod(axis=1)


def dct1_naive(v):
    """Direct O(n^2) cosine-sum DCT-I of a finite vector; the cross-check for the FFT path."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("need a 1-d vector with at least two entries")
    _require_finite(v, "the vector to transform")
    n = v.size
    w = v.copy()
    w[0] *= 0.5
    w[-1] *= 0.5
    jk = np.outer(np.arange(n), np.arange(n))
    return np.sqrt(2.0 / (n - 1)) * (np.cos(np.pi * jk / (n - 1)) @ w)


def coeff_to_node_values(c):
    """Raw transform along the last axis: Chebyshev coefficients (length
    M+1) -> node values."""
    M = c.shape[-1] - 1
    w = np.array(c, dtype=np.float64)
    _scale_ends(w, 2.0)
    w *= np.sqrt(M / 2.0)
    return dct1(w)


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
