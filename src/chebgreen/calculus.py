"""Coefficient-space calculus and anchored primitives of nodal bases.

Integrals of grid polynomials come out of an exact pipeline: transform to
Chebyshev coefficients, antidifferentiate on a vector padded with zeros
(a degree-N integrand has a degree-(N+1) primitive), fold the coefficients
above N back onto lower indices, and transform back to the degree-N nodes.
The fold is Chebyshev aliasing: at the degree-N CGL nodes
T_{2N-m}(x_j) = T_m(x_j), so T_{N+1} and T_{N-1} take the same node values,
as do T_{N+2} and T_{N-2} (Trefethen, *Approximation Theory and
Approximation Practice*, ch. 4).  The Lagrange primitives here and the
matrix-free apply in :mod:`.green` therefore transform at the grid's own
length N+1.  Only the node-polynomial primitive, one transform per Green
matrix, still evaluates on the degree-2N grid and keeps its even-index
values.  Of the steps only the antidifferentiation is public
(:func:`integrate_coeffs`); the pipelines pad and fold inline.
"""

import operator

import numpy as np

from .core import NodeVector, CoeffVector, _coeff_to_node_values, _grid_degree, _scale_ends

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
    # coefficients of l_i in closed form, lhat[i, j] = (2/N) w_i w_j
    # cos(pi i j / N) with w = 1/2 at both ends, read from a table of
    # (2/N) cos(pi k / N) with period 2N.  Entries 0..N come from the real
    # FFT of a unit impulse, the FFT's own roots of unity: they give
    # cos(pi/3) = 1/2 exactly at N = 3, where np.cos(np.pi / 3) is an ulp
    # high.  The rest mirror them.  The halvings are exact.
    roots = np.fft.rfft([0.0, 1.0], 2 * N).real * (2.0 / N)
    cosines = np.concatenate([roots, roots[-2:0:-1]])
    k = np.multiply.outer(i, np.arange(N + 1))
    k -= k // (2 * N) * (2 * N)  # k %= 2N; numpy's integer % is about twice as slow
    lhat = cosines[k]
    _scale_ends(lhat, 0.5)  # w_j
    lhat[(i == 0) | (i == N)] *= 0.5  # w_i; a scalar mask for a single index
    # one zero past the degree-(N+1) primitive, then fold T_{N+1} onto T_{N-1}
    ext = np.concatenate([lhat, np.zeros(lhat.shape[:-1] + (1,))], axis=-1)
    prim = _antiderivative_raw(ext)
    pt = prim.T
    pt[N - 1] += pt[N + 1]
    return _coeff_to_node_values(prim[..., : N + 1])


def lagrange_integrals(i, N):
    """Integrals of the i-th degree-N Lagrange basis polynomial up to each node.

    Returns ``(up, down)``, two NodeVectors: ``up.values[k]`` is the
    integral of l_i over [-1, x_k], so it vanishes at the last node, and
    ``down.values[k]`` over [x_k, 1], vanishing at the first.  Exact up to
    round-off: the coefficients of l_i have a closed form, the
    antidifferentiation runs on a vector with room for the degree raise, and
    the one coefficient above N is folded onto T_{N-1}, which takes the same
    values at the degree-N nodes, so one length-(N+1) transform evaluates
    the primitive there without truncation.

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
    N = _grid_degree(N)
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
    N = _grid_degree(N)
    if N < 3:
        raise ValueError("node polynomial primitive needs degree >= 3 (divides by N - 2)")
    i = operator.index(i)
    if not 0 <= i <= N:
        raise ValueError(f"node index {i} out of range for degree {N}")
    scale, q = _node_poly_factors(i, N)
    up, down = _anchor(scale * q)
    return NodeVector(up, N), NodeVector(down, N)
