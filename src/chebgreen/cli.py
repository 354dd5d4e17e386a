"""Command-line front end: export, solve, verify.

Every ``verify`` check lives here: its deviation function beside the
``_CHECKS`` table that holds its degree range and tolerance, and so do
the bc-inverse operators ``diff2_bc_matrix`` and ``green_bc_matrix``.

Exit codes: 0 on success, 1 when a verification deviation is non-finite
or exceeds its recorded tolerance, the output (a path or stdout) cannot
be written or memory runs out, 2 for usage errors.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .core import NodeVector, cgl_points, _cgl_weight_signs, _grid_degree
from .green import green_matrix
from .operators import (METHODS, solve_bvp, _barycentric_rows, _diagonal, _diff2_rows, _fold,
                        _interior_weights)
from .oracle import green_matrix_dense_oracle
from .quadrature import cc_weights, _gram_rows

_EPS = np.finfo(np.float64).eps

# the built-in --rhs forcings, as functions of the grid points
_RHS = {"one": np.ones_like, "x": lambda x: x, "exp": np.exp, "sin": np.sin}


# ---------------------------------------------------------------------------
# cell formatting
#
# A cell is the %.17g of a float (17 significant digits, enough for exact
# round-trips) or its repr (the shortest digits that round-trip, as json
# writes them), in _WIDTH bytes whose unused ones are 0, anywhere in the
# cell.  A numpy kernel writes every cell with 0 < |x| < 1, a 2-digit
# exponent and a mantissa other than a power of two's (whose ulp below is
# half the one above).  With E the decimal exponent and p = 16 - E,
# V = |x| 10^p lies in [10^16, 10^17), and its nearest integer N holds the
# 17 digits.  V is formed as a double-double: |x| times the hi + lo pair of
# 10^p, the product hi |x| split exactly into ph + pl (Dekker, Numer. Math.
# 1971), so V = ph + s with s = pl + lo |x|, and ph an integer (V > 2^53).
# repr takes the fewest digits k whose rounding q_k of V lies within H,
# half an ulp of |x| scaled by 10^p; a rounding to more digits is no
# farther, so k is tested from 16 down on the cells that still pass (the
# test of Adams's Ryu, PLDI 2018).  Python's own formatter writes every
# cell the kernel declines: those outside its range, those where log10 put
# E one off, and those whose rounding or round-trip test lies within
# _MARGIN of a tie or of H.

# the longest %.17g or repr of a finite double, as "-2.2250738585072014e-308"
_WIDTH = 24
# 2^6 times the 2^-46 that bounds the error of the rounding and round-trip
# tests: s is within 2^-47 of V - ph (2^-106 V each from lo and from lo |x|,
# V < 2^57, and 2^-48 from rounding s, |s| < 32), and H and the gap to q_k
# round by less than 2^-49 each
_MARGIN = 2.0 ** -40
_MANTISSA = np.uint64(2**52 - 1)
# 10^p, p = 0..116, rounded to a double and its rest rounded again, from
# Python's exact integers
_TEN_HI = np.array([float(10**p) for p in range(117)])
_TEN_LO = np.array([float(10**p - int(float(10**p))) for p in range(117)])


def _ascii(words):
    return np.frombuffer(b"".join(words), np.uint32)


def _quads():
    # the 4 digits of g = 0..9999 as one word each, then again with their
    # trailing zeros as 0 bytes
    digits = 48 + np.indices((10,) * 4, np.uint8).reshape(4, -1).T
    stripped = digits.copy()
    stripped[np.logical_and.accumulate(digits[:, ::-1] == 48, 1)[:, ::-1]] = 0
    return np.concatenate([digits, stripped]).view(np.uint32).ravel()


_QUADS = _quads()
# a cell's first word, indexed 20 sign + 2 lead digit + point: 0, "-" or 0,
# the lead digit, "." or 0
_LEADS = _ascii(bytes([0, 45 * s, 48 + c, 46 * p]) for s in (0, 1) for c in range(10)
                for p in (0, 1))
# the second word of a fixed-point cell, indexed 10 k + first digit, of the
# value's exponent -k = -1..-4: the k - 1 zeros after "0." and that digit
_ZEROS = _ascii((b"0" * (k - 1)).ljust(3, b"\0") + bytes([48 + c])
                for k in range(5) for c in range(10))
# the last word of a scientific cell, indexed k: "e-" and k in 2 digits
_EXPONENTS = _ascii(b"e-%02d" % k for k in range(100))


def _split(v):
    # v = hi + lo, each half of v's bits (Dekker's split, 2^27 + 1)
    t = 134217729.0 * v
    hi = t - (t - v)
    return hi, v - hi


def _shortest(N, d, H, ok):
    # N rounded to the fewest digits that round-trip, zeros in place of the
    # dropped ones; the cells within _MARGIN of a tie or of H leave ok
    M = N.copy()
    live = np.flatnonzero(ok)
    for j in range(1, 17):
        P = 10**j
        n, e, h = N[live], d[live], H[live]
        q = n // P
        R = n - q * P
        t = (R - P // 2) + e  # V's rest past the rounding point
        up = t > 0
        gap = np.where(up, (P - R) - e, R + e)  # |V - q_k 10^j|
        near = (np.abs(t) < _MARGIN) | (np.abs(gap - h) < _MARGIN)
        ok[live[near]] = False
        fits = (gap < h) & ~near
        live = live[fits]
        M[live] = (q[fits] + up[fits]) * P
        if not live.size:
            break
    return M


def _format_cells(x, shortest, out):
    """Write the %.17g, or if shortest the repr, of each float of the
    contiguous array x into out, of shape x.shape + (_WIDTH,).

    Returns how many cells Python's formatter wrote.
    """
    x = x.reshape(-1)
    cells = out.reshape(-1, _WIDTH)
    a = np.abs(x)
    ok = (a < 1.0) & (a >= 1e-99) & (x.view(np.uint64) & _MANTISSA != 0)
    a[~ok] = 0.5  # a harmless stand-in for the declined cells
    E = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _TEN_HI[16 - E], _TEN_LO[16 - E]
    ph = a * hi
    a1, a2 = _split(a)
    h1, h2 = _split(hi)
    s = (((a1 * h1 - ph) + a1 * h2 + a2 * h1) + a2 * h2) + a * lo
    r = np.rint(s)
    d = s - r  # V - N
    N = ph.astype(np.int64) + r.astype(np.int64)
    # N outside (10^16, 10^17) also marks log10's misses by one
    ok &= (N > 10**16) & (N < 10**17) & (E >= -99) & (np.abs(np.abs(d) - 0.5) > _MARGIN)
    if shortest:
        N = _shortest(N, d, np.ldexp(hi, np.frexp(a)[1] - 54), ok)
    # the value is 0.d0 g1 g2 g3 g4 x 10^(1-k), or d0.g1g2g3g4 e-k: a lead
    # digit and four groups of four, trailing zeros dropped
    carry = N == 10**17  # repr's rounding up to the next power of ten
    N = np.where(ok & ~carry, N, 10**16)
    k = np.where(ok, -E - carry, 1)
    upper = N // 10**8
    lower = N - upper * 10**8
    d0 = upper // 10**8
    upper -= d0 * 10**8
    g1, g3 = upper // 10**4, lower // 10**4
    groups = [g1, upper - g1 * 10**4, g3, lower - g3 * 10**4]
    # each group's word, its trailing zeros dropped where no digit follows
    tail = True
    for i in (3, 2, 1, 0):
        g = groups[i]
        groups[i] = _QUADS[g + 10**4 * tail]
        tail = tail & (g == 0)
    fixed = k <= 4
    words = [_LEADS[20 * (x < 0) + 2 * np.where(fixed, 0, d0) + (fixed | ~tail)],
             _ZEROS[10 * np.minimum(k, 4) + d0], *groups, _EXPONENTS[k]]
    w = cells.view(np.uint32)
    w[:, 0] = words[0]
    for i in range(1, 6):  # fixed point moves the digits one word right
        w[:, i] = np.where(fixed, words[i], words[i + 1])
    bad = np.flatnonzero(~ok)
    if bad.size:
        cell = repr if shortest else "{:.17g}".format
        text = "".join(cell(v).ljust(_WIDTH, "\0") for v in x[bad].tolist())
        cells[bad] = np.frombuffer(text.encode(), np.uint8).reshape(-1, _WIDTH)
    return bad.size


# per format: the bytes between two cells of a row, after a row, and after
# the last row
_FRAMES = {"csv": (",", "\n", "\n"),
           "json": (",\n      ", "\n    ],\n    [\n      ", "\n    ]\n  ]\n}\n")}
# cells per panel, for the kernel's temporaries and for each written chunk
_PANEL = 2**13


class _MatrixText:
    """The bytes of head and the rows of M in a format of _FRAMES, made
    panel by panel as they are iterated.

    M must be centrosymmetric bit for bit, as green_matrix's mirrored
    half-columns make every Green matrix (-0.0 and 0.0 are written
    differently): the cells of the top half of its rows are formatted once,
    and row N-i is written as row i's cells reversed.  M is not kept.
    """

    def __init__(self, M, fmt, head):
        self.head = head.encode()
        self.sep, self.end, self.last = (np.frombuffer(t.encode(), np.uint8) for t in _FRAMES[fmt])
        self.n_rows, n_cols = M.shape
        self.step = max(1, _PANEL // n_cols)  # rows per panel
        self.cells = np.empty(((self.n_rows + 1) // 2, n_cols, _WIDTH), np.uint8)
        for i in range(0, len(self.cells), self.step):
            out = self.cells[i:i + self.step]
            _format_cells(M[i:i + len(out)], fmt == "json", out)

    def __len__(self):
        # the byte count, which perfbench/tracer.py reads as the bytes written
        row = np.count_nonzero(self.cells, axis=(1, 2))
        framing = (self.cells.shape[1] - 1) * len(self.sep) + len(self.end)
        return (len(self.head) + int(row.sum() + row[:self.n_rows // 2].sum())
                + self.n_rows * framing - len(self.end) + len(self.last))

    def __iter__(self):
        yield self.head
        cells, step = self.cells, self.step
        h, n_cols, width = cells.shape
        panels = ([cells[i:i + step] for i in range(0, h, step)]
                  + [cells[max(i - step, 0):i][::-1, ::-1]
                     for i in range(self.n_rows // 2, 0, -step)])
        # a row of cells, each followed by sep (but the last), then end
        frame = np.zeros((min(step, h), n_cols + 1, width + len(self.sep)), np.uint8)
        frame[:, :-2, width:] = self.sep
        frame[:, -1, :len(self.end)] = self.end
        for block in panels:
            P = frame[:len(block)]
            P[:, :-1, :width] = block
            if block is panels[-1]:
                P[-1, -1] = 0
                P[-1, -1, :len(self.last)] = self.last
            yield P[P != 0]


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


def _write_text(data, path):
    """Write data, bytes or an iterable of bytes-like chunks, to path, or to
    stdout when path is None.  Returns an exit code."""
    chunks = [data] if isinstance(data, bytes) else data
    try:
        if path is None:
            sys.stdout.buffer.writelines(chunks)
            sys.stdout.buffer.flush()
        else:
            with open(path, "wb") as fh:
                fh.writelines(chunks)
    except OSError as exc:
        if path is None:
            # the unwritten bytes stay buffered: the interpreter's flush at
            # exit would fail on them again, print two more lines and exit 120
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            path = "<stdout>"
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
    # G is centrosymmetric bit for bit, so the ascending order is its own bytes
    head = ""
    if args.fmt == "json":
        # the bytes json.dumps(payload, indent=2) writes, laid out directly
        ordering = "ascending" if args.ascending else "descending"
        head = json.dumps({"degree": args.n, "ordering": ordering}, indent=2)[:-2]
        head += ',\n  "entries": [\n    [\n      '
    text = _MatrixText(G, args.fmt, head)
    del G  # the top half's cells are all the export still needs
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
    try:
        with np.errstate(all="ignore"):  # reported below in one line, not as warnings
            y = solve_bvp(NodeVector(f), args.method)
    except ValueError:  # NodeVector refuses a non-finite solution, as from 1e308 forcings
        print(f"error: the degree-{args.n} {args.method} solution has non-finite values",
              file=sys.stderr)
        return 1
    text = "".join("%.17g\n" % v for v in y.values.tolist())
    return _write_text(text.encode(), args.out)


# ---------------------------------------------------------------------------
# verify
#
# Each deviation, and each bc-inverse operator, takes a degree in its
# check's _CHECKS range, which _cmd_verify enforces.  Every operator the
# product checks multiply is centrosymmetric (A[r-1-i, c-1-j] = A[i, j] for
# r x c), as the CGL grids are symmetric.  With Q the even or the odd basis
# of a grid (node pairs e_k + e_{n-k} and a middle node, or e_k - e_{n-k}),
# A.Q = Q.A_b, so a product splits into an even and an odd block product of
# about half the size (Solomonoff, J. Comput. Phys. 1992): a quarter of the
# multiply-adds.  Only the top rows of each factor but G are built and
# folded (operators._fold, which the stripped solve shares), each factor's
# blocks are dropped once multiplied, and the deviation is read off the
# product's two blocks.


def _pair_weights(rows):
    # [even, odd] diagonals of Q^T Q for a grid of rows nodes: 2 for a node
    # pair, 1 for the middle node of an odd count
    w = np.full(rows - rows // 2, 2.0)
    w[rows // 2:] = 1.0
    return [w, w[:rows // 2]]


def _identity_deviation(even, odd):
    # max |P - I| over the centrosymmetric P with square [even, odd] blocks,
    # in place on them.  I's blocks are identities; on a column pair P - I
    # holds (a + b) / 2 and (a - b) / 2, a and b the blocks' entries minus I,
    # the larger in magnitude (|a| + |b|) / 2, with P's own bits off the
    # diagonal as rounding is monotone.  odd lacks a middle row (a / 2 there)
    # and a middle column (a)
    for B in (even, odd):
        k = np.arange(len(B))
        B[k, k] -= 1.0
        np.abs(B, out=B)
    q = odd.shape[1]
    even[:len(odd), :q] += odd
    even[:, :q] *= 0.5
    return float(even.max())


def _dev_oracle(n):
    return float(np.max(np.abs(green_matrix(n).entries
                               - green_matrix_dense_oracle(n).entries)))


def _dev_centrosymmetry(n):
    # exact, on the full G, whose top rows alone the product checks read.
    # G - JGJ is odd under the mirror, so its top rows hold its largest entry
    G = green_matrix(n).entries
    D = G[:n // 2 + 1] - G[::-1, ::-1][:n // 2 + 1]
    return float(np.abs(D, out=D).max())


# unprefixed: perfbench/tracer.py patches this pair by name in cli
def diff2_bc_matrix(N, stop=None):
    """Second derivative with boundary rows replaced by unit rows.

    Row 0 is e_0 and row N is e_N (they read off the boundary values); the
    interior rows are those of the full second-derivative matrix.  Given
    stop, only rows 0..stop-1 are built.
    """
    A = _diff2_rows(N, N + 1 if stop is None else stop)
    ends = [i for i in (0, N) if i < len(A)]
    A[ends] = 0.0
    A[ends, ends] = 1.0
    return A


def green_bc_matrix(N, stop=None):
    """Green matrix with boundary columns carrying the harmonic extensions.

    Column 0 is (x+1)/2 (equals 1 at the first node, 0 at the last), column
    N is (1-x)/2, and the middle block is G.E: solve on interior data after
    extension.  Together with :func:`diff2_bc_matrix` this forms a mutually
    inverse pair.  The interior rows of E are the identity, so G.E is
    formed as G's interior columns plus two rank-1 terms, in O(N^2) rather
    than as a dense O(N^3) product, and only the two boundary rows of E are
    built.  Given stop, only rows 0..stop-1 are built.
    """
    x = cgl_points(N)
    e_first, e_last = _barycentric_rows(x[1:-1], _interior_weights(N), x[[0, -1]])
    G, x_first, x_last, x = green_matrix(N).entries[:stop], x[0], x[-1], x[:stop]
    B = np.empty((len(G), N + 1))
    B[:, 0] = 0.5 * (x_first + x)
    B[:, -1] = -0.5 * (x_last + x)
    mid = B[:, 1:-1]
    np.multiply(G[:, :1], e_first, out=mid)
    mid += G[:, 1:-1]
    for p in range(0, len(G), 64):  # the last rank-1 term, in row panels
        mid[p:p + 64] += G[p:p + 64, -1:] * e_last
    return B


def _dev_bc_inverse(n):
    # max |A.B - I| and |B.A - I| from the parity blocks.  B before A:
    # green_bc_matrix holds G and B's top rows at its peak.  Each block pair
    # is multiplied both ways, then dropped
    h = n // 2 + 1
    B = _fold(green_bc_matrix(n, h), n + 1)
    A = _fold(diff2_bc_matrix(n, h), n + 1)
    AB, BA = [], []
    while A:  # the even blocks, then the odd ones
        a, b = A.pop(0), B.pop(0)
        AB.append(a @ b)
        BA.append(b @ a)
        del a, b
    return max(_identity_deviation(*AB), _identity_deviation(*BA))


def _dev_cc_weights(n):
    w = cc_weights(n)
    return max(abs(float(w.sum()) - 2.0), max(0.0, -float(w.min())))


def _dev_left_inverse(n):
    # max |G.D2 - I| over the interior rows and columns: the blocks without
    # row 0 and the boundary column pair
    h = n // 2 + 1
    G = _fold(green_matrix(n).entries[:h], n + 1)
    P = [g @ d for g, d in zip(G, _fold(_diff2_rows(n, h), n + 1))]
    del G
    return _identity_deviation(*(p[1:, 1:] for p in P))


def _dev_right_inverse(n):
    # max |R_down.D2.G.R_up - I|: a degree-(n-2) node vector reinterpolated
    # up to degree n, mapped by D2.G there and restricted back.  Formed right
    # to left, R_down.(D2.(G.R_up)), each factor's blocks dropped once used
    h = n // 2 + 1
    x, x_low = cgl_points(n), cgl_points(n - 2)
    G = _fold(green_matrix(n).entries[:h], n + 1)
    R_up = _fold(_barycentric_rows(x_low, _cgl_weight_signs(n - 2), x[:h]), n + 1)
    P = [g @ r for g, r in zip(G, R_up)]
    del G, R_up
    P = [d @ p for d, p in zip(_fold(_diff2_rows(n, h), n + 1), P)]
    R_down = _fold(_barycentric_rows(x, _cgl_weight_signs(n), x_low[:h - 1]), n - 1)
    P = [r @ p for r, p in zip(R_down, P)]
    return _identity_deviation(*P)


def _boundary_basis(n, parity):
    # the even (parity 0) or odd (1) block of the node values of
    # p_m = (1 - x^2) T_m, m = 0..n-2, one column per m (T_m at node j is
    # cos(m j pi / n)).  p_m has parity (-1)^m: the even m on the top
    # (n + 2) // 2 nodes, the odd m, which vanish at a middle node, on the
    # top (n + 1) // 2
    rows = (n + 2 - parity) // 2
    x = cgl_points(n)[:rows]
    B = np.outer(np.arange(rows) * (np.pi / n), np.arange(parity, n - 1, 2))
    np.cos(B, out=B)
    B *= (1.0 - x * x)[:, None]
    return B


def _gram_blocks(n):
    # [even, odd] blocks Q^T S Q of the consistent Gram matrix
    # S = diag(d) + X^T X (quadrature.consistent_gram_matrix).  The n rows
    # of X sit at the odd points of the degree-2n grid, which mirror among
    # themselves, so X.Q = Q'.X_b with Q' their own basis and
    # Q^T X^T X Q = X_b^T (Q'^T Q') X_b: the top rows of X are scaled by the
    # square roots of their pair weights and folded, and each block runs as
    # a symmetric rank-k update
    d, X = _gram_rows(n, (n + 1) // 2)
    X *= np.sqrt(_pair_weights(n)[0])[:, None]
    S = []
    for w, Y in zip(_pair_weights(n + 1), _fold(X, n)):
        S.append(Y.T @ Y)
        _diagonal(S[-1])[:] += w * d[:len(w)]
    return S


def _dev_symmetry(n):
    # max |<S D2 p, q> - <S p, D2 q>| / (|p| |q|) over the basis of degree <= n
    # polynomials vanishing at the boundary, in the consistent inner product
    # of S.  M = B^T D2^T S B, the transpose of B^T S D2 B (S is symmetric),
    # pairs p and q of one parity only: with B = Q.B_b and D2.Q = Q.D2_b its
    # block is (D2_b B_b)^T (Q^T S Q) B_b
    S = _gram_blocks(n)
    D2 = _fold(_diff2_rows(n, n // 2 + 1), n + 1)
    dev = 0.0
    for parity, w in enumerate(_pair_weights(n + 1)):
        B = _boundary_basis(n, parity)
        norms = np.sqrt(np.einsum("i,ij,ij->j", w, B, B))
        M = (D2.pop(0) @ B).T @ (S.pop(0) @ B)
        A = M - M.T
        A /= np.multiply.outer(norms, norms)
        dev = max(dev, float(np.abs(A, out=A).max()))
    return dev


def _tol_inverse(n):
    return max(1e-12, 40.0 * n**3 * _EPS)


def _tol_bc_inverse(n):
    # the embedded pair multiplies through D2, whose corner entries grow ~n^4
    return max(1e-12, 2.0 * n**4 * _EPS)


# name -> (min n, max n or None, deviation, recorded tolerance)
_CHECKS = {
    # n <= 10 is not the reference's limit: perfbench's verify workload and
    # self-check fix the check set, and ROADMAP item 17b lifts the cap with them
    "oracle": (1, 10, _dev_oracle, lambda n: 16.0 * _EPS),
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
    code = _write_text((json.dumps(rows, indent=2, allow_nan=False) + "\n").encode(), None)
    return code or (0 if ok else 1)


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
