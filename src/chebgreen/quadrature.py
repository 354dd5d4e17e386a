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

from dataclasses import dataclass

import numpy as np

from .core import cgl_points, _node_to_coeff_values, _freeze
from .operators import diff2_matrix, reinterp_matrix

__all__ = [
    "QuadratureWeights",
    "GramMatrix",
    "cc_weights",
    "consistent_gram_matrix",
    "consistent_inner_product",
    "verify_d2_symmetry",
]


@dataclass(frozen=True)
class QuadratureWeights:
    """Positive quadrature weights on the degree-M CGL grid; they sum to 2."""

    degree: int
    weights: np.ndarray

    def __post_init__(self):
        _freeze(self, "weights", ndim=1, degree=self.degree)
        if self.degree < 1:
            raise ValueError("weights need a grid of degree >= 1")


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric positive-definite matrix of the consistent inner product."""

    degree: int
    entries: np.ndarray

    def __post_init__(self):
        _freeze(self, "entries", ndim=2, degree=self.degree)
        if self.degree < 1:
            raise ValueError("a Gram matrix needs a grid of degree >= 1")
        np.linalg.cholesky(self.entries)  # positive definiteness check; raises if not


def cc_weights(M):
    """Clenshaw-Curtis weights on the degree-M grid: w_i = integral of l_i.

    Batched form of the full-interval values of ``lagrange_integrals``; the
    result is symmetrized (the exact weights satisfy w[i] = w[M-i]) and is
    exact for every polynomial of degree <= M.
    """
    if M < 1:
        raise ValueError("grid degree must be >= 1")
    j = np.arange(M + 1)
    t = np.zeros(M + 1)
    t[::2] = 2.0 / (1.0 - j[::2].astype(np.float64) ** 2)  # integral of T_j; odd j vanish
    w = _node_to_coeff_values(t)
    w = 0.5 * (w + w[::-1])
    return QuadratureWeights(M, w)


def consistent_gram_matrix(N):
    """Gram matrix S = R^T W R of the consistent inner product on degree N.

    R reinterpolates to the degree-2N grid and W holds the Clenshaw-Curtis
    weights there; 2N is the smallest refinement that integrates products of
    two degree-N polynomials exactly.  Symmetrized so S == S^T holds
    entrywise; positive definiteness is checked by factorization at
    construction.
    """
    if N < 1:
        raise ValueError("grid degree must be >= 1")
    R = reinterp_matrix(N, 2 * N).entries
    w = cc_weights(2 * N).weights
    S = R.T @ (w[:, None] * R)
    S = 0.5 * (S + S.T)
    return GramMatrix(N, S)


def consistent_inner_product(p, q, S):
    """q^T S p; the exact integral of p*q when both have degree <= S.degree."""
    if p.grid_degree != q.grid_degree or p.grid_degree != S.degree:
        raise ValueError("inner product needs matching degrees")
    return float(q.values @ (S.entries @ p.values))


def verify_d2_symmetry(N):
    """Symmetry defect of the second derivative in the consistent product.

    Over the basis p_m = (1 - x^2) T_m, m = 0..N-2, of degree <= N
    polynomials vanishing at the boundary, returns
    max |<S D2 p, q> - <S p, D2 q>| / (|p| |q|).
    """
    if N < 3:
        raise ValueError("symmetry check needs grid degree >= 3")
    x = cgl_points(N)
    m = np.arange(N - 1)
    theta = np.arange(N + 1) * (np.pi / N)  # T_m at node j is cos(m j pi / N)
    B = (1.0 - x * x)[:, None] * np.cos(np.outer(theta, m))
    S = consistent_gram_matrix(N).entries
    D2 = diff2_matrix(N).entries
    M = B.T @ (S @ (D2 @ B))
    norms = np.linalg.norm(B, axis=0)
    return float((np.abs(M - M.T) / np.outer(norms, norms)).max())
