"""Slow, transparent references that only the tests compare the package with.

Barycentric weights by the defining product, the DCT-I as a literal cosine
sum, and the coefficient-to-node transform on any grid length, which the
fold-free references use to evaluate on the degree-2N grid.
"""

import numpy as np

from chebgreen.core import _require_finite, _scale_ends, dct1

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
