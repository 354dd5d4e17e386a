"""Differentiation, reinterpolation, boundary-embedded operator matrices,
and ``solve_bvp``, the one entry point to the three solution methods.

The differentiation matrix follows the barycentric form (Berrut & Trefethen,
SIAM Review 2004) with the negative-row-sum diagonal.  The second-derivative
matrix is its square in exact arithmetic, built directly in O(N^2) from the
same entries (Welfert, SIAM J. Numer. Anal. 1997; Weideman & Reddy, ACM
TOMS 2000); the stripped solve splits it by parity (Solomonoff, J. Comput.
Phys. 1992).  Every resampling matrix is one barycentric evaluation of an
interpolant at a set of points: ``reinterp_matrix`` evaluates the grid
interpolant on another grid, and the extension E is the interpolant
through the interior nodes evaluated at every node.  The boundary-embedded
pair ``diff2_bc_matrix`` / ``green_bc_matrix`` extends the stripped second
derivative and the Green matrix with boundary rows/columns so that the two
square matrices are mutual inverses.
"""

import numpy as np

from . import green
from .core import NodeVector, cgl_points, _cgl_weight_signs, _grid_degree, _require_type
from .green import green_matrix

__all__ = [
    "METHODS",
    "diff_matrix",
    "diff2_matrix",
    "solve_stripped",
    "reinterp_matrix",
    "extension_matrix",
    "diff2_bc_matrix",
    "green_bc_matrix",
    "solve_bvp",
]

METHODS = ("dense-green", "matrix-free", "linear-system")


def _diagonal(A, start=0):
    # writable view of the diagonal entries A[i, start + i] of a C-contiguous
    # array of rows start..start+len(A)-1 of a wider square matrix (start = 0:
    # the main diagonal of an array with at least as many columns as rows)
    return A.reshape(-1)[start::A.shape[1] + 1]


def _diff_rows(x, lam, start, stop, out=None):
    # rows start..stop-1 of the first-derivative matrix with a zero diagonal,
    # its diagonal (the negated row sums), and the reciprocal node differences
    # 1/(x_i - x_j) with ones on the diagonal, in out if given.  The weight
    # ratios are +-1, +-2 or +-1/2, so scaling the reciprocal by them is exact
    # and equals dividing the ratio by the difference bit-for-bit.
    inv = np.subtract.outer(x[start:stop], x, out=out)
    _diagonal(inv, start)[:] = 1.0
    np.reciprocal(inv, out=inv)
    D = inv * lam
    D /= lam[start:stop, None]
    _diagonal(D, start)[:] = 0.0
    return D, -D.sum(axis=1), inv


def diff_matrix(N):
    """First-derivative collocation matrix on the degree-N grid.

    Off-diagonal entries are (lambda_j/lambda_k)/(x_k - x_j); each diagonal
    entry is the negated sum of its row, which builds the
    constant-annihilation property in.
    """
    N = _grid_degree(N)
    D, d, _ = _diff_rows(cgl_points(N), _cgl_weight_signs(N), 0, N + 1)
    _diagonal(D)[:] = d
    return D


# rows per panel of the second-derivative build: the panel's two temporaries
# stay a small fraction of the output, and every entry goes through the same
# operations as in a one-shot build, so the result is the same bit for bit
_PANEL = 64


def _diff2_rows(N, stop):
    # rows 0..stop-1 of the second-derivative matrix, _PANEL rows at a time in
    # place on the output rows that _diff_rows fills with the reciprocal
    # differences: 2 D_ij (D_ii - 1/(x_i - x_j)) off the diagonal, the
    # negated row sum on it
    x, lam = cgl_points(N), _cgl_weight_signs(N)
    D2 = np.empty((stop, N + 1))
    for start in range(0, stop, _PANEL):
        end = min(start + _PANEL, stop)
        D, d, P = _diff_rows(x, lam, start, end, out=D2[start:end])
        np.subtract(d[:, None], P, out=P)
        P *= D
        del D  # before the next panel's D is made
        P *= 2.0  # zero on the diagonal, where D is zero
        np.negative(P.sum(axis=1), out=_diagonal(P, start))
    return D2


def diff2_matrix(N):
    """Second-derivative collocation matrix on the degree-N grid.

    Equal in exact arithmetic to the square of :func:`diff_matrix`, but
    built directly in O(N^2) (Welfert, SIAM J. Numer. Anal. 1997; Weideman
    & Reddy, ACM TOMS 2000): off the diagonal
    D2_ij = 2 D_ij (D_ii - 1/(x_i - x_j)), on it the negated row sum.
    """
    N = _grid_degree(N, 2)
    return _diff2_rows(N, N + 1)


def solve_stripped(f):
    """Collocation solve of y'' = f with zero Dirichlet data.

    Solves the boundary-stripped second-derivative system on the interior
    values and pads zeros at the two boundary nodes.  The stripped matrix
    is centrosymmetric (node k mirrors node N-k), so only its top rows are
    built and it splits by parity (Solomonoff, J. Comput. Phys. 1992): with
    B the top rows on the top columns and C the top rows on the mirrored
    columns, (B + C) u_e = f_e and (B - C) u_o = f_o give the even and odd
    parts of the solution, about N/2 unknowns each, and y = u_e + u_o on
    the top half, u_e - u_o on the bottom half.  The middle node of an even
    N belongs to the even system.  A singular factorization propagates as
    ``numpy.linalg.LinAlgError`` (not expected for this operator).
    """
    _require_type(f, NodeVector, "solve_stripped")
    N = _grid_degree(f.grid_degree, 2)
    h = (N - 1) // 2
    # nodes 1..h, their mirrors N-1..N-h, and the middle node N/2 if N is even
    up, down, mid = slice(1, h + 1), slice(N - 1, N - h - 1, -1), slice(h + 1, N - h)
    A = _diff2_rows(N, N // 2 + 1)[1:]
    even = np.empty((len(A), len(A)))
    np.add(A[:, up], A[:, down], out=even[:, :h])
    even[:, h:] = A[:, mid]
    odd = A[:h, up] - A[:h, down]
    v = f.values
    u_e = np.linalg.solve(even, np.concatenate((0.5 * (v[up] + v[down]), v[mid])))
    u_o = np.linalg.solve(odd, 0.5 * (v[up] - v[down]))
    y = np.zeros(N + 1)
    y[up] = u_e[:h] + u_o
    y[mid] = u_e[h:]
    y[down] = u_e[:h] - u_o
    return NodeVector(y, N)


def reinterp_matrix(N_from, N_to):
    """Evaluation matrix of the degree-N_from interpolant at the degree-N_to grid.

    Exact on polynomials of degree <= N_from.  Target nodes that coincide
    with source nodes get exact unit rows; with both grids built by
    :func:`cgl_points` this covers the interlacing case N_to = 2*N_from
    bit-for-bit.
    """
    N_from, N_to = _grid_degree(N_from), _grid_degree(N_to)
    return _barycentric_rows(cgl_points(N_from), _cgl_weight_signs(N_from), cgl_points(N_to))


def _barycentric_rows(x, lam, y):
    # evaluation matrix at the points y of the interpolant through the nodes
    # x with barycentric weights lam, built in one buffer: the differences,
    # then the weights over them, then the rows normalised; points on a node
    # get exact unit rows
    R = np.subtract.outer(y, x)
    rows, cols = np.nonzero(R == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(lam, R, out=R)
        R /= R.sum(axis=1, keepdims=True)
    R[rows] = 0.0
    R[rows, cols] = 1.0
    return R


def _interior_weights(N):
    # barycentric weights of the interior CGL points, the zeros of U_{N-1}:
    # (-1)^(j+1) sin^2(j pi/N), j = 1..N-1, in closed form (Wang, Huybrechs
    # & Vandewalle, Math. Comp. 2014); unlike the product formula they
    # neither underflow nor overflow at any degree
    j = np.arange(1, N)
    return np.where(j % 2 == 1, 1.0, -1.0) * np.sin(np.pi * j / N) ** 2


def extension_matrix(N):
    """(N+1) x (N-1) extension from interior values to all nodes.

    E is the degree-(N-2) interpolant through the interior nodes evaluated
    at every node: its interior rows are exact unit rows, and its two
    boundary rows extrapolate to x = 1 and x = -1.  The interior weights
    are in closed form (Wang, Huybrechs & Vandewalle, Math. Comp. 2014),
    so E is finite at every degree.
    """
    N = _grid_degree(N, 2)
    x = cgl_points(N)
    return _barycentric_rows(x[1:-1], _interior_weights(N), x)


def diff2_bc_matrix(N):
    """Second derivative with boundary rows replaced by unit rows.

    Row 0 is e_0 and row N is e_N (they read off the boundary values); the
    interior rows are those of the full second-derivative matrix.
    """
    N = _grid_degree(N, 2)
    A = diff2_matrix(N)
    A[[0, -1]] = 0.0
    A[0, 0] = 1.0
    A[-1, -1] = 1.0
    return A


def green_bc_matrix(N):
    """Green matrix with boundary columns carrying the harmonic extensions.

    Column 0 is (x+1)/2 (equals 1 at the first node, 0 at the last), column
    N is (1-x)/2, and the middle block is G.E: solve on interior data after
    extension.  Together with :func:`diff2_bc_matrix` this forms a mutually
    inverse pair.  The interior rows of E are the identity, so G.E is
    formed as G's interior columns plus two rank-1 terms, in O(N^2) rather
    than as a dense O(N^3) product, and only the two boundary rows of E are
    built.  The terms go in row panels: G and B are the only full arrays.
    """
    N = _grid_degree(N, 2)
    x = cgl_points(N)
    G = green_matrix(N).entries
    e_first, e_last = _barycentric_rows(x[1:-1], _interior_weights(N), x[[0, -1]])
    B = np.empty((N + 1, N + 1))
    B[:, 0] = 0.5 * (x[0] + x)
    B[:, -1] = -0.5 * (x[-1] + x)
    for rows in _row_slices(N + 1):
        mid = B[rows, 1:-1]
        np.multiply(G[rows, :1], e_first, out=mid)
        mid += G[rows, 1:-1]
        mid += G[rows, -1:] * e_last
    return B


# row panels of green_bc_matrix and the verify checks in cli: a quarter of
# the m rows, rounded up to a multiple of 24, a last single row joined to the
# one before (numpy runs a one-row product as a vector product).  Each
# product panel re-packs its right factor, so few tall panels are fastest
# (`verify --check all` in process, median ms, one core of a 2-vCPU Xeon VM;
# one panel / a quarter / an eighth / 96 / 48 rows): n = 512
# 121/113/118/111/122, n = 1024 613/618/636/618/691, n = 2048
# 3454/3571/3792/3921/4640.  On one BLAS thread the checks kept the one-shot
# bits at all but one degree tried; with more they move by rounding.
def _row_slices(m):
    w = 24 * -(-m // 96)
    return [slice(s, s + w if s + w < m - 1 else m) for s in range(0, m - 1, w)]


def solve_bvp(f, method):
    """Solve y'' = f, y(-1) = y(1) = 0 on the grid of f.

    method is one of "dense-green" (multiply by the assembled matrix),
    "matrix-free" (transform pipeline), or "linear-system" (solve the
    boundary-stripped collocation system).
    """
    _require_type(f, NodeVector, "solve_bvp")
    if method == "dense-green":
        y = green_matrix(f.grid_degree).entries @ f.values
        return NodeVector(y, f.grid_degree)
    if method == "matrix-free":
        # looked up on green per call: the benchmark tracer (perfbench/tracer.py) patches it there
        return green.apply_green_matrix_free(f)
    if method == "linear-system":
        return solve_stripped(f)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
