"""Differentiation and reinterpolation matrices, and ``solve_bvp``, the one
entry point to the three solution methods.

The differentiation matrix follows the barycentric form (Berrut & Trefethen,
SIAM Review 2004) with the negative-row-sum diagonal.  The second-derivative
matrix is its square in exact arithmetic, built directly in O(N^2) from the
same entries (Welfert, SIAM J. Numer. Anal. 1997; Weideman & Reddy, ACM
TOMS 2000); the stripped solve splits it by parity (Solomonoff, J. Comput.
Phys. 1992).  Every resampling matrix is one barycentric evaluation of an
interpolant at a set of points: ``reinterp_matrix`` evaluates the grid
interpolant on another grid, and the extension E is the interpolant
through the interior nodes evaluated at every node.
"""

import numpy as np

from . import green
from .core import (NodeVector, cgl_points, _cgl_weight_signs, _degree_memo, _grid_degree,
                   _require_type)
# not called here: the benchmark tracer (perfbench/tracer.py) wraps
# operators.green_matrix when it installs, and raises if the name is missing
from .green import green_matrix  # noqa: F401

__all__ = [
    "METHODS",
    "diff_matrix",
    "diff2_matrix",
    "solve_stripped",
    "reinterp_matrix",
    "extension_matrix",
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


def _diff2_panel(x, lam, start, out):
    # rows start..start+len(out)-1 of the second-derivative matrix, in place
    # on out, which _diff_rows fills with the reciprocal differences:
    # 2 D_ij (D_ii - 1/(x_i - x_j)) off the diagonal, the negated row sum on it
    D, d, P = _diff_rows(x, lam, start, start + len(out), out=out)
    np.subtract(d[:, None], P, out=P)
    P *= D
    P *= 2.0  # zero on the diagonal, where D is zero
    np.negative(P.sum(axis=1), out=_diagonal(P, start))


def _diff2_rows(N, stop):
    # rows 0..stop-1 of the second-derivative matrix, _PANEL rows at a time
    x, lam = cgl_points(N), _cgl_weight_signs(N)
    D2 = np.empty((stop, N + 1))
    for start in range(0, stop, _PANEL):
        _diff2_panel(x, lam, start, D2[start:start + _PANEL])
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


def _fold(A, rows):
    # [even, odd] blocks of a centrosymmetric rows x c matrix from A, its top
    # (rows + 1) // 2 rows: A.[I | J] on the c // 2 column pairs plus the
    # middle column of an odd c, and the top rows // 2 rows of A.[I | -J].
    # The verify products use it; the stripped solve folds its panels with
    # _fold_into, the same arithmetic row by row
    c = A.shape[1]
    even = np.empty((len(A), c - c // 2))
    odd = np.empty((rows // 2, c // 2))
    _fold_into(A, even, odd)
    return [even, odd]


def _fold_into(A, even, odd):
    # _fold's blocks written into even, one row per row of A, and odd, one
    # row per row of A's first len(odd); every entry is one add, subtract or
    # copy of A's own entries, so a fold in row panels has the same bits
    c = A.shape[1]
    q = c // 2
    mirror = A[:, :c - q - 1:-1]
    np.add(A[:, :q], mirror, out=even[:, :q])
    even[:, q:] = A[:, q:c - q]
    np.subtract(A[:len(odd), :q], mirror[:len(odd)], out=odd)


def _stripped_blocks(N):
    # the stripped solve's [even, odd] blocks, the bits of
    # _fold(_diff2_rows(N, N // 2 + 1)[1:, 1:-1], N - 1): D2 rows 1..N//2
    # without their end columns, folded a panel at a time into one buffer,
    # so no half of D2 is held and the largest array is allocated once
    h, m = (N - 1) // 2, N // 2
    blocks = np.empty(m * m + h * h)
    even, odd = blocks[:m * m].reshape(m, m), blocks[m * m:].reshape(h, h)
    x, lam = cgl_points(N), _cgl_weight_signs(N)
    panel = np.empty((min(_PANEL, m), N + 1))
    for start in range(1, m + 1, _PANEL):
        rows = panel[:m + 1 - start]
        _diff2_panel(x, lam, start, rows)
        r = slice(start - 1, start - 1 + len(rows))
        _fold_into(rows[:, 1:-1], even[r], odd[r])
    return even, odd


# rows of a block whose inverse _factor keeps whole.  A cold solve at
# N = 1024 took 7.3, 7.1 and 8.6 ms with leaves of 32, 64 and 128 rows, and
# a warm one 0.29, 0.22 and 0.19 ms (one BLAS thread): smaller leaves cost
# Python calls in the apply, larger ones the inverses' 2n^3 flops
_LEAF = 64


def _factor(A):
    # overwrite the square A with its factorization by recursive 2x2 block
    # elimination, with no pivoting across the halves (the Schur-complement
    # form of block LU; Higham, Accuracy and Stability of Numerical
    # Algorithms, ch. 13): A11 factored, A12 <- A11^-1 A12, A21 kept,
    # A22 <- A22 - A21 A12 factored.  A leaf of at most _LEAF rows holds its
    # inverse.  A singular leaf raises numpy.linalg.LinAlgError
    n = len(A)
    if n <= _LEAF:
        A[:] = np.linalg.inv(A)
        return
    k = n // 2
    _factor(A[:k, :k])
    _apply(A[:k, :k], A[:k, k:])
    A[k:, k:] -= A[k:, :k] @ A[:k, k:]
    _factor(A[k:, k:])


def _apply(F, x):
    # overwrite x, a vector or a matrix of columns, with A^-1 x for F the
    # _factor of A: the forward substitution through A21 and the back
    # substitution through A11^-1 A12, all matrix-vector products for a vector
    n = len(F)
    if n <= _LEAF:
        x[:] = F @ x
        return
    k = n // 2
    _apply(F[:k, :k], x[:k])
    x[k:] -= F[k:, :k] @ x[:k]
    _apply(F[k:, k:], x[k:])
    x[:k] -= F[:k, k:] @ x[k:]


@_degree_memo
def _stripped_factors(N):
    # _stripped_blocks(N) factored in place by _factor, the set-up every
    # stripped solve at N applies in O(N^2).  Read-only, and kept in the
    # memo for the next solve at this N; a build that raises keeps nothing
    blocks = _stripped_blocks(N)
    try:
        for A in blocks:
            _factor(A)
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(
            f"stripped second-derivative system at degree {N}: {err}") from err
    if not all(np.isfinite(A).all() for A in blocks):
        raise np.linalg.LinAlgError(
            f"stripped second-derivative system at degree {N}: non-finite factorization")
    return blocks


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
    N belongs to the even system.  Each system is factored once per degree
    by recursive block elimination, with no pivoting across its halves,
    and the factorization is kept for later solves at that degree, which
    then cost O(N^2).  A singular or non-finite factorization raises
    ``numpy.linalg.LinAlgError`` naming the degree (not expected for this
    operator).
    """
    _require_type(f, NodeVector, "solve_stripped")
    N = _grid_degree(f.grid_degree, 2)
    h = (N - 1) // 2
    # nodes 1..h, their mirrors N-1..N-h, and the middle node N/2 if N is even
    up, down, mid = slice(1, h + 1), slice(N - 1, N - h - 1, -1), slice(h + 1, N - h)
    even, odd = _stripped_factors(N)
    v = f.values
    u_e = np.concatenate((0.5 * (v[up] + v[down]), v[mid]))
    u_o = 0.5 * (v[up] - v[down])
    _apply(even, u_e)
    _apply(odd, u_o)
    y = np.zeros(N + 1)
    y[up] = u_e[:h] + u_o
    y[mid] = u_e[h:]
    y[down] = u_e[:h] - u_o
    return NodeVector(y)


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


def solve_bvp(f, method):
    """Solve y'' = f, y(-1) = y(1) = 0 on the grid of f.

    method is one of "dense-green" (apply the Green matrix from the
    factors ``green_matrix`` assembles it from, O(N log N) time without an
    (N+1)^2 array), "matrix-free" (transform pipeline), or
    "linear-system" (solve the boundary-stripped collocation system).
    """
    _require_type(f, NodeVector, "solve_bvp")
    # both applies are looked up on green per call, where tests patch them
    # and the benchmark tracer (perfbench/tracer.py) wraps the matrix-free one
    if method == "dense-green":
        return green._apply_green_dense(f)
    if method == "matrix-free":
        return green.apply_green_matrix_free(f)
    if method == "linear-system":
        return solve_stripped(f)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
