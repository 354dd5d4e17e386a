"""Coefficient-space calculus and anchored primitives of nodal bases.

The three vector operations (pad with zeros, antidifferentiate, drop the
odd-index fine samples) combine with the transforms in :mod:`.core` into an
exact pipeline for integrals of grid polynomials: a degree-N integrand has a
degree-(N+1) primitive, which the degree-2N fine grid represents without
loss, and the fine grid interlaces the coarse one so restriction is a pure
slice.
"""

from dataclasses import dataclass

import numpy as np

from .core import NodeVector, CoeffVector, _coeff_to_node_values, _node_to_coeff_values

__all__ = [
    "PrimitivePair",
    "extend",
    "integrate_coeffs",
    "reduce_fine_to_coarse",
    "lagrange_integrals",
    "node_poly_primitive",
]


@dataclass(frozen=True)
class PrimitivePair:
    """Anchored primitives of one integrand, sampled at the grid nodes.

    ``up.values[k]`` integrates from -1 up to node k, so it vanishes at the
    last node; ``down.values[k]`` integrates from node k up to +1 and
    vanishes at the first.  Their sum is the full-interval integral at
    every node.
    """

    up: NodeVector
    down: NodeVector

    def __post_init__(self):
        if self.up.grid_degree != self.down.grid_degree:
            raise ValueError("up/down primitives must live on the same grid")


def extend(uhat, m):
    """Append m zero coefficients; the represented polynomial is unchanged."""
    if m < 0:
        raise ValueError("cannot extend by a negative count")
    return CoeffVector(np.concatenate([uhat.values, np.zeros(m)]))


def integrate_coeffs(uhat):
    """Antidifferentiate in coefficient space.

    out[0] = u[1]/4, out[1] = u[0] - u[2]/2, out[j] = (u[j-1] - u[j+1])/(2j)
    for j >= 2, with out-of-range entries read as zero.  The output has the
    same length as the input and represents a primitive of it up to an
    additive constant.

    The input must end in at least two zeros (the extended shape): with a
    nonzero top coefficient the degree-raised primitive would be silently
    truncated.
    """
    vals = uhat.values
    if vals.size < 3:
        raise ValueError("integration needs at least three coefficients")
    if vals[-1] != 0.0 or vals[-2] != 0.0:
        raise ValueError(
            "integration needs two trailing zero coefficients; "
            "extend the vector first or the primitive would be truncated"
        )
    return CoeffVector(_antiderivative_raw(vals))


def _antiderivative_raw(c):
    # unchecked core of integrate_coeffs, along the last axis; callers
    # guarantee enough padding
    n = c.shape[-1]
    out = np.empty(c.shape)
    # single entries go through .T, which puts the last axis first: a 1-d
    # input then takes fast scalar indexing
    ct, ot = c.T, out.T
    ot[0] = ct[1] / 4.0
    ot[1] = ct[0] - ct[2] / 2.0
    # (c[j-1] - c[j+1]) / (2j) for j = 2..n-1, with c[n] read as zero
    body = out[..., 2:]
    np.subtract(c[..., 1 : n - 2], c[..., 3:], out=body[..., :-1])
    ot[n - 1] = ct[n - 2]
    body /= 2.0 * np.arange(2, n)
    return out


def reduce_fine_to_coarse(v):
    """Keep the even-index entries of an odd-length vector.

    On node values this restricts a degree-2N fine grid to the degree-N
    coarse grid it interlaces.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size < 3 or v.size % 2 == 0:
        raise ValueError("reduction expects a 1-d vector of odd length >= 3")
    return v[::2].copy()


def _lagrange_primitive_values(i, N):
    """Node values (coarse grid) of the primitive of the i-th Lagrange basis
    polynomial, before any integration constant is fixed.

    For an array of k basis indices the result is a (k, N+1) block, row r
    for index i[r], with the same bits as the per-index calls.
    """
    e = np.equal.outer(i, np.arange(N + 1)).astype(np.float64)
    lhat = _node_to_coeff_values(e)
    # N zeros of headroom; at N == 1 one extra is needed to keep two trailing
    # zeros for the antiderivative rule, and the dropped top coefficient of
    # the result is exactly zero (the primitive has degree N+1 <= 2N)
    pad = N if N >= 2 else 2
    ext = np.concatenate([lhat, np.zeros(lhat.shape[:-1] + (pad,))], axis=-1)
    prim = _antiderivative_raw(ext)[..., : 2 * N + 1]
    return _coeff_to_node_values(prim)[..., ::2]


def lagrange_integrals(i, N):
    """Integrals of the i-th degree-N Lagrange basis polynomial up to each node.

    Returns a :class:`PrimitivePair`: ``up.values[k]`` is the integral of
    l_i over [-1, x_k] and ``down.values[k]`` over [x_k, 1].  Exact up to
    round-off: the whole pipeline (transform, antidifferentiation on an
    extended vector, fine-grid evaluation, restriction) manipulates
    polynomials that every stage represents without truncation.

    Parameters
    ----------
    i : int
        Basis index, 0 <= i <= N.
    N : int
        Grid degree, N >= 1.

    Returns
    -------
    PrimitivePair
    """
    if N < 1:
        raise ValueError("grid degree must be >= 1")
    if not 0 <= i <= N:
        raise ValueError(f"basis index {i} out of range for degree {N}")
    prim = _lagrange_primitive_values(i, N)
    return PrimitivePair(
        up=NodeVector(prim - prim[-1], N),
        down=NodeVector(prim[0] - prim, N),
    )


def _node_poly_factors(i, N):
    """Factors of the anchor-free node-polynomial primitive, N >= 3.

    Returns ``(scale, q)``: q holds the coarse-node values of
    T_{N+2}/(N+2) - 2 T_N/N + T_{N-2}/(N-2), one fine-grid evaluation
    shared by every index, and scale = +-1/(4N), halved at the endpoints,
    is the cancelled weight of index i (an array of indices gives an array
    of scales).  The primitive for index i is scale * q.
    """
    base = np.zeros(2 * N + 1)
    base[N - 2] = 1.0 / (N - 2)
    base[N] = -2.0 / N
    base[N + 2] = 1.0 / (N + 2)
    q = _coeff_to_node_values(base)[::2]
    i = np.asarray(i)
    sign = np.where(i % 2 == 0, 1.0, -1.0)
    halving = np.where((i == 0) | (i == N), 0.5, 1.0)
    return sign * halving / (4.0 * N), q


def node_poly_primitive(i, N):
    """Anchored primitives of the weighted node polynomial at the grid nodes.

    The node polynomial of the degree-N grid is (T_{N+1} - T_{N-1})/2^N; the
    quantity integrated here is the i-th barycentric weight times it, whose
    primitive is

        (lambda_i / 2^(N+1)) * (T_{N+2}/(N+2) - 2 T_N/N + T_{N-2}/(N-2)).

    The weight magnitude 2^(N-1)/N is cancelled against 2^(N+1) before any
    floating-point work (the raw factors overflow near N ~ 1075), leaving
    coefficients of size O(1/N^2).  Requires N >= 3: the T_{N-2}/(N-2) term
    divides by N-2.

    Returns a :class:`PrimitivePair` with the same anchoring conventions as
    :func:`lagrange_integrals`.
    """
    if N < 3:
        raise ValueError("node polynomial primitive needs degree >= 3 (divides by N - 2)")
    if not 0 <= i <= N:
        raise ValueError(f"node index {i} out of range for degree {N}")
    scale, q = _node_poly_factors(i, N)
    p = scale * q
    return PrimitivePair(
        up=NodeVector(p - p[-1], N),
        down=NodeVector(p[0] - p, N),
    )
