"""Clenshaw-Curtis weights and the consistent discrete inner product.

The weight of node i is the full-interval integral of the i-th Lagrange
basis polynomial.  All M+1 weights come out of a single transform: the
integral row is the node-to-coefficient map applied to the vector of
Chebyshev full-interval integrals (the map's matrix is symmetric, so the
row of basis integrals equals its action on that vector).

The inner product <p, q> = q^T S p with S = R^T W R integrates the product
of two degree-N grid polynomials exactly: the product has degree <= 2N and
the 2N-point Clenshaw-Curtis rule is exact there.
"""

import numpy as np

from .core import cgl_points, _cgl_weight_signs, _grid_degree, _node_to_coeff_values
# diff2_matrix and reinterp_matrix are not called here; they stay importable
# from this module because the benchmark tracer (perfbench/tracer.py) wraps
# them in this namespace
from .operators import diff2_matrix, reinterp_matrix, _barycentric_rows, _diagonal

__all__ = [
    "cc_weights",
    "consistent_gram_matrix",
]


def cc_weights(M):
    """Clenshaw-Curtis weights on the degree-M grid: w_i = integral of l_i.

    All M+1 basis integrals come from one node-to-coefficient transform; the
    result is symmetrized (the exact weights satisfy w[i] = w[M-i]) and is
    exact for every polynomial of degree <= M.
    """
    M = _grid_degree(M)
    j = np.arange(M + 1)
    t = np.zeros(M + 1)
    t[::2] = 2.0 / (1.0 - j[::2].astype(np.float64) ** 2)  # integral of T_j; odd j vanish
    w = _node_to_coeff_values(t)
    return 0.5 * (w + w[::-1])


def consistent_gram_matrix(N):
    """Gram matrix S = R^T W R of the consistent inner product on degree N.

    R reinterpolates to the degree-2N grid and W holds the Clenshaw-Curtis
    weights there; 2N is the smallest refinement that integrates products of
    two degree-N polynomials exactly.  The even nodes of the 2N grid are the
    degree-N nodes, where R has exact unit rows, so
    S = diag(W_even) + X^T X with X the odd rows of R scaled by the square
    roots of their (positive) weights; only those N rows are built.  X^T X
    runs as a symmetric rank-k update, so S == S^T holds entrywise.  S is
    also positive definite; it is not factored here, as that would cost
    O(N^3) per build.
    """
    N = _grid_degree(N)
    d, X = _gram_rows(N, N)
    S = X.T @ X
    _diagonal(S)[:] += d
    return S


def _gram_rows(N, stop):
    # d and rows 0..stop-1 of X in S = diag(d) + X^T X: d holds the weights
    # of the degree-2N rule at its even nodes, X the odd rows of the
    # reinterpolation, each scaled by the square root of its weight
    w = cc_weights(2 * N)
    X = _barycentric_rows(cgl_points(N), _cgl_weight_signs(N), cgl_points(2 * N)[1:2 * stop:2])
    X *= np.sqrt(w[1:2 * stop:2])[:, None]
    return w[::2], X
