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

from .core import cgl_points, _grid_degree, _node_to_coeff_values
from .operators import diff2_matrix, reinterp_matrix

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
    if M < 1:
        raise ValueError("grid degree must be >= 1")
    j = np.arange(M + 1)
    t = np.zeros(M + 1)
    t[::2] = 2.0 / (1.0 - j[::2].astype(np.float64) ** 2)  # integral of T_j; odd j vanish
    w = _node_to_coeff_values(t)
    return 0.5 * (w + w[::-1])


def consistent_gram_matrix(N):
    """Gram matrix S = R^T W R of the consistent inner product on degree N.

    R reinterpolates to the degree-2N grid and W holds the Clenshaw-Curtis
    weights there; 2N is the smallest refinement that integrates products of
    two degree-N polynomials exactly.  Symmetrized so S == S^T holds
    entrywise.  S is also positive definite; it is not factored here, as
    that would cost O(N^3) per build.
    """
    N = _grid_degree(N)
    if N < 1:
        raise ValueError("grid degree must be >= 1")
    R = reinterp_matrix(N, 2 * N)
    w = cc_weights(2 * N)
    S = R.T @ (w[:, None] * R)
    return 0.5 * (S + S.T)


def consistent_inner_product(p, q, S):
    """q^T S p; the exact integral of p*q when S is the degree-N Gram matrix
    and both vectors live on the degree-N grid."""
    N = p.grid_degree
    if q.grid_degree != N or S.shape != (N + 1, N + 1):
        raise ValueError("inner product needs matching degrees")
    return float(q.values @ (S @ p.values))


def verify_d2_symmetry(N):
    """Symmetry defect of the second derivative in the consistent product.

    Over the basis p_m = (1 - x^2) T_m, m = 0..N-2, of degree <= N
    polynomials vanishing at the boundary, returns
    max |<S D2 p, q> - <S p, D2 q>| / (|p| |q|).
    """
    N = _grid_degree(N)
    if N < 3:
        raise ValueError("symmetry check needs grid degree >= 3")
    x = cgl_points(N)
    m = np.arange(N - 1)
    theta = np.arange(N + 1) * (np.pi / N)  # T_m at node j is cos(m j pi / N)
    B = (1.0 - x * x)[:, None] * np.cos(np.outer(theta, m))
    S = consistent_gram_matrix(N)
    D2 = diff2_matrix(N)
    M = B.T @ (S @ (D2 @ B))
    norms = np.linalg.norm(B, axis=0)
    return float((np.abs(M - M.T) / np.outer(norms, norms)).max())
