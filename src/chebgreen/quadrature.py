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

from .core import (NodeVector, cgl_points, _cgl_weight_signs, _grid_degree, _node_to_coeff_values,
                   _require_finite, _require_type)
# reinterp_matrix is not called here; it stays importable from this module
# because the benchmark tracer (perfbench/tracer.py) wraps it in this namespace
from .operators import diff2_matrix, reinterp_matrix, _barycentric_rows, _diagonal

__all__ = [
    "cc_weights",
    "consistent_gram_matrix",
    "consistent_inner_product",
    "verify_d2_symmetry",
]


def cc_weights(M):
    """Clenshaw-Curtis weights on the degree-M grid: w_i = integral of l_i.

    Batched form of the full-interval values of ``lagrange_integrals``; the
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
    X = _barycentric_rows(cgl_points(N), _cgl_weight_signs(N), cgl_points(2 * N)[1::2])
    X *= np.sqrt(w[1::2])[:, None]
    S = X.T @ X
    _diagonal(S)[:] += w[::2]
    return S


def consistent_inner_product(p, q, S):
    """q^T S p; the exact integral of p*q when S is the degree-N Gram matrix
    and both vectors live on the degree-N grid.  A NaN or infinite entry
    in S raises ValueError (p and q are checked NodeVectors)."""
    _require_type(p, NodeVector, "consistent_inner_product")
    _require_type(q, NodeVector, "consistent_inner_product")
    N = p.grid_degree
    S = np.asarray(S)
    if q.grid_degree != N or S.shape != (N + 1, N + 1):
        raise ValueError("inner product needs matching degrees")
    _require_finite(S, "the Gram matrix S")
    return float(q.values @ (S @ p.values))


def verify_d2_symmetry(N):
    """Symmetry defect of the second derivative in the consistent product.

    Over the basis p_m = (1 - x^2) T_m, m = 0..N-2, of degree <= N
    polynomials vanishing at the boundary, returns
    max |<S D2 p, q> - <S p, D2 q>| / (|p| |q|).
    """
    N = _grid_degree(N, 3)
    # M = B^T D2^T S B, the transpose of B^T S D2 B (S is symmetric), formed
    # right to left from the Gram matrix: S is dropped before D2 is built and
    # B is rebuilt for the last product, so at most three (N+1)^2 arrays are
    # alive at a time
    M = consistent_gram_matrix(N) @ _boundary_basis(N)
    M = diff2_matrix(N).T @ M
    B = _boundary_basis(N)
    M = B.T @ M
    M = M - M.T
    np.abs(M, out=M)
    norms = np.linalg.norm(B, axis=0)
    M /= np.outer(norms, norms)
    return float(M.max())


def _boundary_basis(N):
    # node values of p_m = (1 - x^2) T_m, m = 0..N-2, one column per m;
    # T_m at node j is cos(m j pi / N)
    x = cgl_points(N)
    B = np.outer(np.arange(N + 1) * (np.pi / N), np.arange(N - 1))
    np.cos(B, out=B)
    B *= (1.0 - x * x)[:, None]
    return B
