"""Coefficient-space calculus and anchored primitives of nodal bases.

Three vector steps (pad with zeros, antidifferentiate, drop the odd-index
fine samples) combine with the transforms in :mod:`.core` into an exact
pipeline for integrals of grid polynomials: a degree-N integrand has a
degree-(N+1) primitive, which the degree-2N fine grid represents without
loss, and the fine grid interlaces the coarse one so restriction is a pure
slice.  Of the three steps only the antidifferentiation is public
(:func:`integrate_coeffs`); the pipelines pad and restrict inline.
"""

import operator

import numpy as np

from .core import NodeVector, CoeffVector, _coeff_to_node_values, _node_to_coeff_values

__all__ = [
    "integrate_coeffs",
    "lagrange_integrals",
    "node_poly_primitive",
]


def integrate_coeffs(uhat):
    """Antidifferentiate in coefficient space.

    out[0] = u[1]/4, out[1] = u[0] - u[2]/2, out[j] = (u[j-1] - u[j+1])/(2j)
    for j >= 2, with out-of-range entries read as zero.  The output has the
    same length as the input and represents a primitive of it up to an
    additive constant.

    The input must end in at least two zeros (the padded shape): with a
    nonzero top coefficient the degree-raised primitive would be silently
    truncated.
    """
    vals = uhat.values
    if vals.size < 3:
        raise ValueError("integration needs at least three coefficients")
    if vals[-1] != 0.0 or vals[-2] != 0.0:
        raise ValueError(
            "integration needs two trailing zero coefficients; "
            "pad the vector with zeros first or the primitive would be truncated"
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


def _anchor(p):
    """Anchor a primitive along the last axis: ``(up, down) = (p - p[-1],
    p[0] - p)``, the integrals from -1 and up to +1 at each node."""
    return p - p[..., -1:], p[..., :1] - p


def _lagrange_primitive_values(i, N):
    """Node values (coarse grid) of the primitive of the i-th Lagrange basis
    polynomial, before any integration constant is fixed.

    For an array of k basis indices the result is a (k, N+1) block, row r
    for index i[r], with the same bits as the per-index calls.
    """
    e = np.equal.outer(i, np.arange(N + 1)).astype(np.float64)
    lhat = _node_to_coeff_values(e)
    # 2N + 2 coefficients, one past the 2N + 1 kept: room for the degree raise at any N
    pad = N + 1
    ext = np.concatenate([lhat, np.zeros(lhat.shape[:-1] + (pad,))], axis=-1)
    prim = _antiderivative_raw(ext)[..., : 2 * N + 1]
    return _coeff_to_node_values(prim)[..., ::2]


def lagrange_integrals(i, N):
    """Integrals of the i-th degree-N Lagrange basis polynomial up to each node.

    Returns ``(up, down)``, two NodeVectors: ``up.values[k]`` is the
    integral of l_i over [-1, x_k], so it vanishes at the last node, and
    ``down.values[k]`` over [x_k, 1], vanishing at the first.  Exact up to
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
    tuple of NodeVector
    """
    if N < 1:
        raise ValueError("grid degree must be >= 1")
    i = operator.index(i)  # TypeError for a fractional index, which names no basis function
    if not 0 <= i <= N:
        raise ValueError(f"basis index {i} out of range for degree {N}")
    up, down = _anchor(_lagrange_primitive_values(i, N))
    return NodeVector(up, N), NodeVector(down, N)


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
    floating-point work (2^(N+1) overflows doubles from N = 1023 on), leaving
    coefficients of size O(1/N^2).  Requires N >= 3: the T_{N-2}/(N-2) term
    divides by N-2.

    Returns ``(up, down)``, two NodeVectors with the same anchoring
    conventions as :func:`lagrange_integrals`.
    """
    if N < 3:
        raise ValueError("node polynomial primitive needs degree >= 3 (divides by N - 2)")
    i = operator.index(i)
    if not 0 <= i <= N:
        raise ValueError(f"node index {i} out of range for degree {N}")
    scale, q = _node_poly_factors(i, N)
    up, down = _anchor(scale * q)
    return NodeVector(up, N), NodeVector(down, N)
