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
    w = cc_weights(2 * N)
    # S before X, so that X, freed first, goes back to the top of the heap
    # rather than leave a hole too small for the next (N+1)^2 array
    S = np.empty((N + 1, N + 1))
    X = _barycentric_rows(cgl_points(N), _cgl_weight_signs(N), cgl_points(2 * N)[1::2])
    X *= np.sqrt(w[1::2])[:, None]
    np.matmul(X.T, X, out=S)
    _diagonal(S)[:] += w[::2]
    return S
