"""Command-line front end: export, solve, verify.

Every ``verify`` check lives here: its deviation function beside the
``_CHECKS`` table that holds its degree range and tolerance, and so do
the bc-inverse operators ``diff2_bc_matrix`` and ``green_bc_matrix``.

Exit codes: 0 on success, 1 when a verification deviation is non-finite
or exceeds its recorded tolerance, an output path cannot be written or
memory runs out, 2 for usage errors.
"""

import argparse
import json
import math
import sys

import numpy as np

from .core import NodeVector, cgl_points, _grid_degree
from .green import green_matrix
from .operators import (METHODS, diff2_matrix, reinterp_matrix, solve_bvp,
                        _barycentric_rows, _interior_weights)
from .oracle import green_matrix_dense_oracle, _MAX_GREEN_DEGREE
from .quadrature import cc_weights, consistent_gram_matrix

_EPS = np.finfo(np.float64).eps

# the built-in --rhs forcings, as functions of the grid points
_RHS = {"one": np.ones_like, "x": lambda x: x, "exp": np.exp, "sin": np.sin}


def _format_rows(M, cell, sep):
    """Format each row of the 2-d array M as its cells joined by sep.

    cell is a printf directive applied to every float: "%.17g" (17
    significant digits, enough for exact round-trips) or "%r" (the
    shortest repr, as json writes it).  When M is centrosymmetric, as
    every Green matrix is, only the top half of the rows is formatted and
    row N-i is written as row i's cells reversed.  The test compares bits,
    since -0.0 == 0.0 but the two are written differently.
    """
    n_rows, n_cols = M.shape
    bits = M.view(np.uint64)
    half = (n_rows + 1) // 2 if np.array_equal(bits, bits[::-1, ::-1]) else n_rows
    template = sep.join([cell] * n_cols)
    rows = [template % tuple(row) for row in M[:half].tolist()]
    return rows + [sep.join(r.split(sep)[::-1]) for r in reversed(rows[:n_rows - half])]


# the largest n for which numpy can describe an (n+1) x (n+1) float64 array;
# above it numpy raises a ValueError before allocating, which the commands
# would misreport
_MAX_DEGREE = math.isqrt(np.iinfo(np.intp).max // 8) - 1


def _degree(text):
    """--n as a grid degree, through the library's guard and below the
    largest matrix numpy can describe; argparse reports the error as
    "argument --n: <message>" and exits 2."""
    try:
        n = _grid_degree(int(text))
    except ValueError as exc:  # from int() too, for text that is no integer
        raise argparse.ArgumentTypeError(exc) from None
    if n > _MAX_DEGREE:
        raise argparse.ArgumentTypeError(f"degree {n} is above {_MAX_DEGREE}, the largest "
                                         "whose (n+1) x (n+1) matrix numpy can describe")
    return n


def _write_text(text, path):
    """Write to path, or stdout when path is None.  Returns an exit code."""
    if path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# green


def _cmd_green(args, parser):
    try:
        G = green_matrix(args.n).entries
    except ValueError:  # GreenMatrix refuses non-finite entries
        print(f"error: the degree-{args.n} Green matrix has non-finite entries",
              file=sys.stderr)
        return 1
    ordering = "descending"
    if args.ascending:
        G = G[::-1, ::-1]
        ordering = "ascending"
    if args.fmt == "csv":
        text = "\n".join(_format_rows(G, "%.17g", ",")) + "\n"
    else:
        # the bytes json.dumps(payload, indent=2) writes, laid out directly
        head = json.dumps({"degree": args.n, "ordering": ordering}, indent=2)[:-2]
        rows = _format_rows(G, "%r", ",\n      ")
        text = (head + ',\n  "entries": [\n    [\n      '
                + "\n    ],\n    [\n      ".join(rows) + "\n    ]\n  ]\n}\n")
    return _write_text(text, args.out)


# ---------------------------------------------------------------------------
# solve


def _load_rhs(rhs_name, n, parser):
    if rhs_name in _RHS:
        return _RHS[rhs_name](cgl_points(n))
    if rhs_name.startswith("file:"):
        path = rhs_name[5:]
        try:  # UnicodeDecodeError, from a file that is not text, is a ValueError
            with open(path) as fh:
                values = np.array([float(v) for v in fh.read().split()])
        except ValueError:
            parser.error(f"{path} is not text of whitespace-separated numbers")
        if values.size != n + 1:
            parser.error(f"{path} holds {values.size} values, expected {n + 1}")
        if not np.isfinite(values).all():
            parser.error(f"{path} contains a non-finite value")
        return values
    parser.error(f"unknown --rhs {rhs_name!r}: choose from "
                 f"{', '.join(_RHS)} or file:<path>")


def _cmd_solve(args, parser):
    if args.method != "dense-green" and args.n < 2:
        parser.error(f"method {args.method} needs --n >= 2")
    try:
        f = _load_rhs(args.rhs, args.n, parser)
    except OSError as exc:
        print(f"error: cannot read {exc.filename}: {exc}", file=sys.stderr)
        return 1
    y = solve_bvp(NodeVector(f), args.method)
    text = _format_rows(y.values[np.newaxis], "%.17g", "\n")[0] + "\n"
    return _write_text(text, args.out)


# ---------------------------------------------------------------------------
# verify
#
# Each deviation, and each bc-inverse operator, takes a degree in its
# check's _CHECKS range, which _cmd_verify enforces.  The product checks
# multiply in row panels through one buffer, each panel written over the
# product's left factor, so at most two (n+1)^2 arrays and a panel are alive
# at a time.


# row panels of green_bc_matrix and the verify checks: a quarter of the m
# rows, rounded up to a multiple of 24, a last single row joined to the
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


def _multiply_into(A, B):
    # A.B written over the first B.shape[1] columns of A, which it returns,
    # a row panel at a time through one panel-sized buffer
    panels, n = _row_slices(len(A)), B.shape[1]
    buf = np.empty(max(s.stop - s.start for s in panels) * n)
    for s in panels:
        A[s, :n] = np.matmul(A[s], B, out=buf[:(s.stop - s.start) * n].reshape(-1, n))
    return A[:, :n]


def _identity_deviation(P):
    # max |P - I| of a square matrix, computed in place on P
    k = np.arange(len(P))
    P[k, k] -= 1.0
    return float(np.abs(P, out=P).max())


def _dev_oracle(n):
    return float(np.max(np.abs(green_matrix(n).entries
                               - green_matrix_dense_oracle(n).entries)))


def _dev_centrosymmetry(n):
    # in row panels, each against its mirror rows, so no (n+1)^2 temporary
    G = green_matrix(n).entries
    R, dev = G[::-1, ::-1], 0.0
    for rows in _row_slices(n + 1):
        D = G[rows] - R[rows]
        dev = max(dev, float(np.abs(D, out=D).max()))
        del D  # before the next panel's D is made
    return dev


# unprefixed: perfbench/tracer.py patches this pair by name in cli
def diff2_bc_matrix(N):
    """Second derivative with boundary rows replaced by unit rows.

    Row 0 is e_0 and row N is e_N (they read off the boundary values); the
    interior rows are those of the full second-derivative matrix.
    """
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


def _dev_bc_inverse(n):
    # B before A: green_bc_matrix holds G and B at its peak, so building it
    # first keeps at most two (n+1)^2 arrays alive.  A.B is written over A,
    # which is rebuilt (in O(n^2)) for B.A, written over B
    B = green_bc_matrix(n)
    dev = _identity_deviation(_multiply_into(diff2_bc_matrix(n), B))
    return max(dev, _identity_deviation(_multiply_into(B, diff2_bc_matrix(n))))


def _dev_cc_weights(n):
    w = cc_weights(n)
    return max(abs(float(w.sum()) - 2.0), max(0.0, -float(w.min())))


def _dev_left_inverse(n):
    # max |G.D2 - I| over the interior rows and columns
    G = green_matrix(n).entries
    G.flags.writeable = True  # the entries are G's own, and nothing else holds them
    return _identity_deviation(_multiply_into(G, diff2_matrix(n))[1:-1, 1:-1])


def _dev_right_inverse(n):
    # max |R_down.D2.G.R_up - I|: a degree-(n-2) node vector reinterpolated
    # up to degree n, mapped by D2.G there and restricted back.  Formed right
    # to left, R_down.(D2.(G.R_up)), each factor dropped once used
    M = green_matrix(n).entries
    M.flags.writeable = True  # the entries are G's own, and nothing else holds them
    M = _multiply_into(M, reinterp_matrix(n - 2, n))
    M = _multiply_into(diff2_matrix(n), M)
    return _identity_deviation(_multiply_into(reinterp_matrix(n, n - 2), M))


def _boundary_basis(n):
    # node values of p_m = (1 - x^2) T_m, m = 0..n-2, one column per m;
    # T_m at node j is cos(m j pi / n)
    x = cgl_points(n)
    B = np.outer(np.arange(n + 1) * (np.pi / n), np.arange(n - 1))
    np.cos(B, out=B)
    B *= (1.0 - x * x)[:, None]
    return B


def _dev_symmetry(n):
    # max |<S D2 p, q> - <S p, D2 q>| / (|p| |q|) over the basis of degree <= n
    # polynomials vanishing at the boundary, in the consistent inner product
    # of S.  M = B^T D2^T S B, the transpose of B^T S D2 B (S is symmetric),
    # is formed right to left from the Gram matrix, each product written over
    # its left factor (S.B over S, then over D2); B is rebuilt for the last
    # product
    M = _multiply_into(consistent_gram_matrix(n), _boundary_basis(n))
    M = _multiply_into(diff2_matrix(n).T, M)
    B = _boundary_basis(n)
    norms = np.sqrt(np.einsum("ij,ij->j", B, B))
    M = _multiply_into(B.T, M)
    # the antisymmetric part in row panels, each against its mirror columns
    dev = 0.0
    for rows in _row_slices(n - 1):
        A = M[rows] - M[:, rows].T
        A /= np.multiply.outer(norms[rows], norms)
        dev = max(dev, float(np.abs(A, out=A).max()))
    return dev


def _tol_inverse(n):
    return max(1e-12, 40.0 * n**3 * _EPS)


def _tol_bc_inverse(n):
    # the embedded pair multiplies through D2, whose corner entries grow ~n^4
    return max(1e-12, 2.0 * n**4 * _EPS)


# name -> (min n, max n or None, deviation, recorded tolerance)
_CHECKS = {
    "oracle": (1, _MAX_GREEN_DEGREE, _dev_oracle, lambda n: 1e-12),
    "centrosymmetry": (1, None, _dev_centrosymmetry, lambda n: 0.0),
    "cc-weights": (1, None, _dev_cc_weights, lambda n: 1e-13),
    "bc-inverse": (2, None, _dev_bc_inverse, _tol_bc_inverse),
    "left-inverse": (3, None, _dev_left_inverse, _tol_inverse),
    "right-inverse": (4, None, _dev_right_inverse, _tol_inverse),
    "symmetry": (3, None, _dev_symmetry, lambda n: max(1e-11, 4.0 * n**2 * _EPS)),
}


def _cmd_verify(args, parser):
    if args.check == "all":
        names = [name for name, (lo, hi, _, _) in _CHECKS.items()
                 if args.n >= lo and (hi is None or args.n <= hi)]
    else:
        lo, hi, _, _ = _CHECKS[args.check]
        if args.n < lo:
            parser.error(f"check {args.check} needs --n >= {lo}")
        if hi is not None and args.n > hi:
            parser.error(f"check {args.check} is limited to --n <= {hi}")
        names = [args.check]
    rows = []
    ok = True
    for name in names:
        _, _, dev_fn, tol_fn = _CHECKS[name]
        dev = float(dev_fn(args.n))
        tol = float(tol_fn(args.n))
        finite = np.isfinite(dev)
        ok = ok and finite and dev <= tol
        # strict JSON has no NaN or Infinity: a non-finite deviation is null
        rows.append({"check": name, "n": args.n,
                     "deviation": dev if finite else None, "tolerance": tol})
    sys.stdout.write(json.dumps(rows, indent=2, allow_nan=False) + "\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="chebgreen",
        description="Pseudospectral Green-matrix tools for u'' = f with "
                    "zero Dirichlet data on [-1, 1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("green", help="export the Green matrix")
    p.add_argument("--n", type=_degree, required=True, help="grid degree")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p.add_argument("--ascending", action="store_true",
                   help="emit rows/columns in ascending node order")
    p.set_defaults(func=_cmd_green)

    p = sub.add_parser("solve", help="solve the boundary-value problem")
    p.add_argument("--n", type=_degree, required=True, help="grid degree")
    p.add_argument("--rhs", required=True,
                   help=f"one of {', '.join(_RHS)}, or file:<path>")
    p.add_argument("--method", choices=METHODS, default="dense-green")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="run invariant checks")
    p.add_argument("--n", type=_degree, required=True, help="grid degree")
    p.add_argument("--check", default="all",
                   choices=tuple(_CHECKS) + ("all",))
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except MemoryError:
        print(f"error: out of memory at degree {args.n}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
