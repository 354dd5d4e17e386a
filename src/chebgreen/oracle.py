"""Slow, exact reference paths used by the tests and by ``verify --check oracle``.

Everything here trades speed for transparency: the continuous Green
function in closed form, barycentric weights by the defining product,
Lagrange bases expanded into monomials, Green-matrix entries by direct
piecewise integration of polynomials, and the DCT as a literal cosine
sum.  Monomial expansion destroys double-precision accuracy as the degree
grows, so the oracles refuse degrees where they would stop being
trustworthy.
"""

import numpy as np
from numpy.polynomial import polynomial as P

from .core import GreenMatrix, cgl_points, _basis_index, _grid_degree, _require_finite

__all__ = [
    "barycentric_weights_general",
    "lagrange_monomial_coeffs",
    "green_matrix_dense_oracle",
    "dct1_naive",
    "green_function_eval",
]

_MAX_GENERAL_POINTS = 40  # product magnitudes leave the safe range beyond this
_MAX_MONOMIAL_DEGREE = 12
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


def lagrange_monomial_coeffs(i, N):
    """Monomial coefficients (ascending) of the i-th Lagrange basis polynomial
    of the degree-N grid."""
    N = _grid_degree(N)
    if N > _MAX_MONOMIAL_DEGREE:
        raise ValueError(f"monomial expansion limited to degree {_MAX_MONOMIAL_DEGREE}")
    i = _basis_index(i, N)
    x = cgl_points(N)
    roots = np.delete(x, i)
    numer = P.polyfromroots(roots)
    denom = np.prod(x[i] - roots)
    return numer / denom


def green_function_eval(x, xi):
    """Green function g(x, xi) of y'' with zero Dirichlet data, the kernel the
    Green matrix integrates: piecewise-bilinear, continuous, zero at x = +-1."""
    if not (-1.0 <= x <= 1.0 and -1.0 <= xi <= 1.0):
        raise ValueError("both arguments must lie in [-1, 1]")
    if x <= xi:
        return 0.5 * (x + 1.0) * (xi - 1.0)
    return 0.5 * (x - 1.0) * (xi + 1.0)


def _poly_integral(coeffs, a, b):
    # exact integral of an ascending-coefficient polynomial over [a, b]
    k = np.arange(1, coeffs.size + 1)
    return float(np.sum(coeffs * (b**k - a**k) / k))


def green_matrix_dense_oracle(N):
    """Green matrix by direct piecewise integration in the monomial basis.

    Entry (k, i) splits the integral of the kernel against l_i at x_k and
    integrates each polynomial piece exactly.  Boundary rows are zero by the
    kernel's boundary values and are written as exact zeros.
    """
    N = _grid_degree(N)
    if N > _MAX_GREEN_DEGREE:
        raise ValueError(f"dense oracle limited to degree {_MAX_GREEN_DEGREE}")
    x = cgl_points(N)
    G = np.zeros((N + 1, N + 1))
    for i in range(N + 1):
        li = lagrange_monomial_coeffs(i, N)
        below = P.polymul([1.0, 1.0], li)  # (xi + 1) l_i, for xi <= x_k
        above = P.polymul([-1.0, 1.0], li)  # (xi - 1) l_i, for xi >= x_k
        for k in range(1, N):
            G[k, i] = 0.5 * (x[k] - 1.0) * _poly_integral(below, -1.0, x[k]) + 0.5 * (
                x[k] + 1.0
            ) * _poly_integral(above, x[k], 1.0)
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
