"""Command-line front end: export, solve, verify.

Exit codes: 0 on success, 1 when a verification deviation is non-finite
or exceeds its recorded tolerance, an output path cannot be written or
memory runs out, 2 for usage errors.
"""

import argparse
import json
import sys

import numpy as np

from .core import NodeVector, cgl_points, _grid_degree
from .green import green_matrix
from .operators import (METHODS, diff2_bc_matrix, green_bc_matrix, solve_bvp,
                        verify_left_inverse, verify_right_inverse, _identity_deviation,
                        _multiply_into, _row_slices)
from .oracle import green_matrix_dense_oracle, _MAX_GREEN_DEGREE
from .quadrature import cc_weights, verify_d2_symmetry

_EPS = np.finfo(np.float64).eps

# the built-in --rhs forcings, as functions of the grid points
_RHS = {"one": np.ones_like, "x": lambda x: x, "exp": np.exp, "sin": np.sin}


def _format_rows(M, cell, sep):
    """Format each row of the 2-d array M as its cells joined by sep.

    cell is a printf directive applied to every float: "%.17g" (17
    significant digits, enough for exact round-trips) or "%r" (the
    shortest repr, as json writes it).  When M is centrosymmetric, as
    every Green matrix is, only the top half of the rows is formatted and
    row N-i is written as row i's cells reversed.
    """
    n_rows, n_cols = M.shape
    half = (n_rows + 1) // 2 if np.array_equal(M, M[::-1, ::-1]) else n_rows
    template = sep.join([cell] * n_cols)
    rows = [template % tuple(row) for row in M[:half].tolist()]
    return rows + [sep.join(r.split(sep)[::-1]) for r in reversed(rows[:n_rows - half])]


def _degree(text):
    """--n as a grid degree, through the library's guard; argparse reports
    the error as "argument --n: <message>" and exits 2."""
    try:
        return _grid_degree(int(text))
    except ValueError as exc:  # from int() too, for text that is no integer
        raise argparse.ArgumentTypeError(exc) from None


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
    G = green_matrix(args.n).entries
    ordering = "descending"
    if args.ascending:
        G = G[::-1, ::-1]
        ordering = "ascending"
    if not np.isfinite(G).all():
        print(f"error: the degree-{args.n} Green matrix has non-finite entries",
              file=sys.stderr)
        return 1
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
    y = solve_bvp(NodeVector(f, grid_degree=args.n), args.method)
    text = _format_rows(y.values[np.newaxis], "%.17g", "\n")[0] + "\n"
    return _write_text(text, args.out)


# ---------------------------------------------------------------------------
# verify


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
    "left-inverse": (3, None, verify_left_inverse, _tol_inverse),
    "right-inverse": (4, None, verify_right_inverse, _tol_inverse),
    "symmetry": (3, None, verify_d2_symmetry, lambda n: max(1e-11, 4.0 * n**2 * _EPS)),
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
