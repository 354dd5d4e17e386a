"""Slow, exact reference paths used by the tests and by ``verify --check oracle``.

Everything here trades speed for transparency: the continuous Green
function in closed form, barycentric weights by the defining product,
Green-matrix entries by direct piecewise integration of each Lagrange
basis polynomial expanded into monomials, and the DCT as a literal cosine
sum.  Monomial expansion destroys double-precision accuracy as the degree
grows, so the oracles refuse degrees where they would stop being
trustworthy.
"""

import numpy as np

from .core import GreenMatrix, cgl_points, _grid_degree, _require_finite

__all__ = [
    "barycentric_weights_general",
    "green_matrix_dense_oracle",
    "dct1_naive",
    "green_function_eval",
]

_MAX_GENERAL_POINTS = 40  # product magnitudes leave the safe range beyond this
_MAX_GREEN_DEGREE = 10


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


def green_function_eval(x, xi):
    """Green function g(x, xi) of y'' with zero Dirichlet data, the kernel the
    Green matrix integrates: piecewise-bilinear, continuous, zero at x = +-1."""
    if not (-1.0 <= x <= 1.0 and -1.0 <= xi <= 1.0):
        raise ValueError("both arguments must lie in [-1, 1]")
    if x <= xi:
        return 0.5 * (x + 1.0) * (xi - 1.0)
    return 0.5 * (x - 1.0) * (xi + 1.0)


def green_matrix_dense_oracle(N):
    """Green matrix by direct piecewise integration in the monomial basis.

    Column i expands l_i into monomials from its roots, the other grid
    points, and integrates the kernel against it exactly: with B and A the
    primitives of (xi + 1) l_i and (xi - 1) l_i, entry (k, i) is
    (x_k - 1)(B(x_k) - B(-1))/2 + (x_k + 1)(A(1) - A(x_k))/2.  Boundary
    rows are zero by the kernel's boundary values and are written as exact
    zeros.
    """
    N = _grid_degree(N)
    if N > _MAX_GREEN_DEGREE:
        raise ValueError(f"dense oracle limited to degree {_MAX_GREEN_DEGREE}")
    x = cgl_points(N)
    xk = x[1:N]
    G = np.zeros((N + 1, N + 1))
    for i in range(N + 1):
        roots = np.delete(x, i)
        # descending coefficients, as np.poly* take; the largest roots go
        # first, since np.poly loses about a digit taking them in grid order
        li = np.poly(sorted(roots, key=abs, reverse=True)) / np.prod(x[i] - roots)
        B = np.polyint(np.convolve([1.0, 1.0], li))  # (xi + 1) l_i, for xi <= x_k
        A = np.polyint(np.convolve([1.0, -1.0], li))  # (xi - 1) l_i, for xi >= x_k
        below = np.polyval(B, xk) - np.polyval(B, -1.0)
        above = np.polyval(A, 1.0) - np.polyval(A, xk)
        G[1:N, i] = 0.5 * (xk - 1.0) * below + 0.5 * (xk + 1.0) * above
    return GreenMatrix(G)


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
