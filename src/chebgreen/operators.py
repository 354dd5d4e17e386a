"""Differentiation, reinterpolation, and boundary-embedded operator matrices.

The differentiation matrix follows the barycentric form (Berrut & Trefethen,
SIAM Review 2004) with the negative-row-sum diagonal; the second derivative
is its literal square.  The boundary-embedded pair ``diff2_bc_matrix`` /
``green_bc_matrix`` extends the stripped second derivative and the Green
matrix with boundary rows/columns so that the two square matrices are
mutual inverses.
"""

from dataclasses import dataclass

import numpy as np

from .core import NodeVector, cgl_points, _freeze
from .green import green_matrix

__all__ = [
    "OperatorMatrix",
    "diff_matrix",
    "diff2_matrix",
    "strip",
    "solve_stripped",
    "reinterp_matrix",
    "projection_matrix",
    "extension_matrix",
    "diff2_bc_matrix",
    "green_bc_matrix",
    "verify_left_inverse",
    "verify_right_inverse",
]


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense matrix with a role tag naming what it does."""

    role: str
    entries: np.ndarray

    def __post_init__(self):
        ent = _freeze(self.entries)
        if ent.ndim != 2:
            raise ValueError("operator entries must be a 2-d matrix")
        object.__setattr__(self, "entries", ent)

    @property
    def rows(self):
        return self.entries.shape[0]

    @property
    def cols(self):
        return self.entries.shape[1]


def _alternating_cgl_weights(N):
    # CGL barycentric weights up to their common positive scale, which every
    # use below cancels in ratios: (-1)^j, endpoints halved
    w = np.where(np.arange(N + 1) % 2 == 0, 1.0, -1.0)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def diff_matrix(N):
    """First-derivative collocation matrix on the degree-N grid.

    Off-diagonal entries are (lambda_j/lambda_k)/(x_k - x_j); each diagonal
    entry is the negated sum of its row, which builds the
    constant-annihilation property in.
    """
    if N < 1:
        raise ValueError("grid degree must be >= 1")
    x = cgl_points(N)
    lam = _alternating_cgl_weights(N)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    D = (lam[None, :] / lam[:, None]) / dx
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return OperatorMatrix("D", D)


def diff2_matrix(N):
    """Second-derivative matrix: the square of :func:`diff_matrix`."""
    if N < 2:
        raise ValueError("second derivative needs grid degree >= 2")
    D = diff_matrix(N).entries
    return OperatorMatrix("D2", D @ D)


def strip(D2):
    """Interior block: first/last rows and columns removed."""
    ent = D2.entries
    if ent.shape[0] != ent.shape[1] or ent.shape[0] < 3:
        raise ValueError("stripping needs a square matrix of size >= 3")
    return OperatorMatrix("D2-stripped", ent[1:-1, 1:-1].copy())


def solve_stripped(f):
    """Collocation solve of y'' = f with zero Dirichlet data.

    Solves the boundary-stripped system on the interior values and pads
    zeros at the two boundary nodes.  A singular factorization propagates
    as ``numpy.linalg.LinAlgError`` (not expected for this operator).
    """
    N = f.grid_degree
    if N < 2:
        raise ValueError("stripped solve needs grid degree >= 2")
    A = strip(diff2_matrix(N)).entries
    y = np.zeros(N + 1)
    y[1:-1] = np.linalg.solve(A, f.values[1:-1])
    return NodeVector(y, N)


def reinterp_matrix(N_from, N_to):
    """Evaluation matrix of the degree-N_from interpolant at the degree-N_to grid.

    Exact on polynomials of degree <= N_from.  Target nodes that coincide
    with source nodes get exact unit rows; with both grids built by
    :func:`cgl_points` this covers the interlacing case N_to = 2*N_from
    bit-for-bit.
    """
    if N_from < 1 or N_to < 1:
        raise ValueError("grid degrees must be >= 1")
    x = cgl_points(N_from)
    y = cgl_points(N_to)
    lam = _alternating_cgl_weights(N_from)
    diff = y[:, None] - x[None, :]
    hit = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        W = lam[None, :] / diff
        R = W / W.sum(axis=1, keepdims=True)
    coincident = hit.any(axis=1)
    R[coincident] = 0.0
    R[hit] = 1.0
    return OperatorMatrix("R", R)


def projection_matrix(N):
    """(N-1) x (N+1) crop to interior values: [0 | I | 0]."""
    if N < 2:
        raise ValueError("projection needs grid degree >= 2")
    P = np.zeros((N - 1, N + 1))
    P[:, 1:-1] = np.eye(N - 1)
    return OperatorMatrix("P", P)


def extension_matrix(N):
    """(N+1) x (N-1) extension from interior values to all nodes.

    Interior rows pass values through; the two boundary rows evaluate the
    degree-(N-2) interpolant through the interior nodes at x = 1 and
    x = -1.  The interior CGL points are the zeros of U_{N-1}, whose
    barycentric weights have the closed form (-1)^j sin^2(j pi/N) (Wang,
    Huybrechs & Vandewalle, Math. Comp. 2014); unlike the product formula
    they neither underflow nor overflow at any degree.
    """
    if N < 2:
        raise ValueError("extension needs grid degree >= 2")
    x = cgl_points(N)
    t = x[1:-1]
    j = np.arange(1, N)
    lam = np.where(j % 2 == 1, 1.0, -1.0) * np.sin(np.pi * j / N) ** 2
    E = np.zeros((N + 1, N - 1))
    E[1:-1] = np.eye(N - 1)
    for row, z in ((0, x[0]), (N, x[-1])):
        w = lam / (z - t)
        E[row] = w / w.sum()
    return OperatorMatrix("E", E)


def diff2_bc_matrix(N):
    """Second derivative with boundary rows replaced by unit rows.

    Row 0 is e_0 and row N is e_N (they read off the boundary values); the
    interior rows are those of the full second-derivative matrix.
    """
    if N < 2:
        raise ValueError("needs grid degree >= 2")
    A = np.zeros((N + 1, N + 1))
    A[1:-1] = diff2_matrix(N).entries[1:-1]
    A[0, 0] = 1.0
    A[-1, -1] = 1.0
    return OperatorMatrix("D2-BC", A)


def green_bc_matrix(N):
    """Green matrix with boundary columns carrying the harmonic extensions.

    Column 0 is (x+1)/2 (equals 1 at the first node, 0 at the last), column
    N is (1-x)/2, and the middle block is G.E: solve on interior data after
    extension.  Together with :func:`diff2_bc_matrix` this forms a mutually
    inverse pair.
    """
    if N < 2:
        raise ValueError("needs grid degree >= 2")
    x = cgl_points(N)
    G = green_matrix(N).entries
    E = extension_matrix(N).entries
    B = np.empty((N + 1, N + 1))
    B[:, 0] = 0.5 * (x[0] + x)
    B[:, -1] = -0.5 * (x[-1] + x)
    B[:, 1:-1] = G @ E
    return OperatorMatrix("G-BC", B)


def verify_left_inverse(N):
    """Max-abs deviation of the stripped product G.D2 from the identity."""
    if N < 3:
        raise ValueError("left-inverse check needs grid degree >= 3")
    G = green_matrix(N).entries
    D2 = diff2_matrix(N).entries
    M = (G @ D2)[1:-1, 1:-1]
    return float(np.abs(M - np.eye(N - 1)).max())


def verify_right_inverse(N):
    """Max-abs deviation of R_down . D2 . G . R_up from the identity.

    The product reinterpolates a degree-(N-2) node vector up to degree N,
    applies D2.G there, and restricts back; it acts as the identity on
    length-(N-1) vectors.
    """
    if N < 4:
        raise ValueError("right-inverse check needs grid degree >= 4")
    R_down = reinterp_matrix(N, N - 2).entries
    R_up = reinterp_matrix(N - 2, N).entries
    D2 = diff2_matrix(N).entries
    G = green_matrix(N).entries
    M = R_down @ D2 @ G @ R_up
    return float(np.abs(M - np.eye(N - 1)).max())
