"""Antiderivatives, Lagrange primitives and the dense Green matrix's factors.

Integrals of grid polynomials are exact up to round-off.  A degree-N
integrand has a degree-(N+1) primitive, and the coefficients above N fold
back onto lower indices: at the degree-N CGL nodes T_{2N-m}(x_j) = T_m(x_j),
so T_{N+1} and T_{N-1} take the same node values, as do T_{N+2} and T_{N-2}
(Trefethen, *Approximation Theory and Approximation Practice*, ch. 4).  The
matrix-free apply in :mod:`.green` pads, antidifferentiates and folds
between two transforms at the grid's own length N+1.  The Lagrange
primitives here need no transform per basis function: their coefficients
are closed-form sines, and a product-to-sum identity turns their node
values into a Toeplitz and a Hankel read of one table of sine sums, scaled
per index, plus three terms that are rank-1 in the node index (the
structure of Townsend, Webb & Olver, "Fast polynomial transforms based on
Toeplitz and Hankel matrices", *Math. Comp.* 2018).  A block of indices
reads the table as two strided windows.  The node-polynomial primitive
needs no transform either.  By the same aliasing, at node k the values of
T_{N+-1}, T_{N+-2} and T_N are sigma_k x_k, sigma_k (2 x_k^2 - 1) and
sigma_k, with sigma_k = (-1)^k.  So the rank-1 terms times (x - x_i) and
the node-polynomial primitive all lie in the span of five node rows,
sigma x^2, sigma x, sigma, x and 1.  ``_green_factors`` builds all of G's
factors from these kernels, the tables and the rank-5 coefficients with
their chord, and runs no transform; with them it keeps the table's FFT,
and :mod:`.green` only assembles G and applies it from that one set-up.
The module is private: its unchecked kernels take arguments that
:mod:`.green` has already checked.
"""

import numpy as np

from .core import _cgl_weight_signs, _degree_memo, cgl_points


def _antiderivative_raw(c):
    # coefficient-space antiderivative along the last axis, up to a
    # constant; unchecked, so callers pad with two trailing zeros or the
    # degree-raised primitive is truncated
    n = c.shape[-1]
    out = np.empty(c.shape)
    # single entries go through .T, which puts the last axis first: a 1-d
    # input then takes fast scalar indexing
    ct, ot = c.T, out.T
    ot[0] = ct[1] / 4.0
    ot[1] = ct[0] - ct[2] / 2.0
    # (c[j-1] - c[j+1]) / (2j) for j = 2..n-1, with c[n] read as zero
    body = out[..., 2:]
    np.subtract(c[..., 1 : n - 2], c[..., 3:], out=body[..., :-1])
    ot[n - 1] = ct[n - 2]
    body /= np.arange(4.0, 2.0 * n, 2.0)
    return out


def _lagrange_primitive_values(cols, N, windows):
    """The sine-sum part of the node values (coarse grid) of the primitives
    of the Lagrange basis polynomials l_i, for the half-column indices
    0 <= i <= N/2 in the slice cols: a (k, N+1) block, row r for index
    cols.start + r.  ``_lagrange_primitive_terms`` gives the rest.

    No transform runs per index.  With theta = pi/N and w_i = 1/2 at
    i = 0, N and 1 elsewhere, l_i has the Chebyshev coefficients
    (2/N) w_i w_m cos(i m theta).  Antidifferentiated, those at
    1 <= m <= N-2 become (2/N) w_i sin(i theta) sin(i m theta)/m, and a
    product-to-sum identity gives their cosine sum at node k as

        (w_i sin(i theta)/N) [S(i+k) + S(i-k)],
        S(m) = sum_{j=1}^{N-2} sin(j m theta)/j,

    one table read along a Toeplitz (i+k) and a Hankel (i-k) diagonal; the
    block is the bracket.  S is odd with period 2N, so one real FFT of 1/j
    gives all of it.  As i <= N/2, the table only spans m = -N/2 .. 3N/2;
    :func:`.green.green_matrix` mirrors the other half-columns.

    ``windows`` is ``_primitive_tables(N)[2]``, which several calls at one
    degree share.
    """
    half = N // 2
    # rows half + i and, reversed, half - i: two strided views, no gather
    return (windows[half + cols.start : half + cols.stop]
            - windows[half - cols.stop + 1 : half - cols.start + 1][::-1])


def _lagrange_primitive_terms(N, tables, x):
    """``(scale, coef, rows)``: the rest of the Lagrange primitives, and the
    rank-5 part of the Green matrix's columns.

    rows holds the five node rows sigma x^2, sigma x, sigma, x and 1, with
    sigma_k = (-1)^k and x the grid's points.  For each half-column index
    i = 0..N/2, the primitive H_i of l_i is
    ``scale[i] * D[i] + p_{N-1} sigma x + p_N sigma + p_0`` at the nodes, D
    the block of ``_lagrange_primitive_values``; its three rank-1 terms are
    T_{N-1} (holding the folded T_{N+1}), T_N and T_0.  scale is
    w_i sin(i theta)/N.  Row i of coef holds (alpha, beta, gamma, p_0,
    p_{N-1}, p_N, P_i(-1)), with P_i the primitive of the weighted node
    polynomial: (x - x_i) (H_i - scale[i] D[i]) - P_i is
    alpha sigma x^2 + beta sigma x + gamma sigma + p_0 x - x_i p_0, and
    P_i(-1) is the value of P_i at x = -1.
    """
    half = N // 2
    cosines, sines, _ = tables
    idx = np.arange(half + 1)
    weight = np.where(idx == 0, 1.0 / N, 2.0 / N)  # (2/N) w_i
    scale = 0.5 * weight * sines[: half + 1]
    # from c_m = (2/N) w_i cos(i m theta), the coefficient of l_i without
    # its w_m; the antiderivative takes c_0 at this full value.  At N = 1
    # the T_{N-1} term is the fold alone; at N = 1 and 2 the sine sum is
    # empty.
    parity = np.where(idx % 2 == 0, 1.0, -1.0)
    c_1 = weight * cosines[: half + 1]
    c_n = weight * parity  # c_N before its w_N = 1/2
    p_nm1 = 0.5 * c_n / (2.0 * (N + 1))  # the folded T_{N+1}, w_N c_N / (2(N+1))
    if N >= 2:  # (c_{N-2} - w_N c_N) / (2(N-1))
        p_nm1 += (parity * weight * cosines[2 * idx] - 0.5 * c_n) / (2.0 * (N - 1))
    p_n = parity * c_1 / (2.0 * N)  # c_{N-1} / (2N)
    p_0 = c_1 / (8.0 if N == 1 else 4.0)  # w_1 c_1 / 4; T_1 is T_N at N = 1
    # P_i is pref_i (T_{N+2}/(N+2) - 2 T_N/N + T_{N-2}/(N-2)), pref_i the
    # CGL weight of index i (+-1, halved at the ends) over 4N.  At the nodes
    # T_{N+-2} = sigma (2 x^2 - 1) and T_N = sigma, so P_i is
    # pref_i (2a sigma x^2 - (a + 2/N) sigma), a = 1/(N+2) + 1/(N-2), and
    # P_i(-1) = pref_i (-1)^N (a - 2/N).  At N = 2 the T_{N-2}/(N-2) term
    # stands for a constant, which the chord removes; at N = 1,
    # T_{-1} = T_1
    a = 1.0 / (N + 2) + (0.0 if N == 2 else 1.0 / (N - 2))
    pref = _cgl_weight_signs(N)[: half + 1] / (4.0 * N)
    xi = x[: half + 1]
    coef = np.stack([p_nm1 - 2.0 * a * pref, p_n - xi * p_nm1,
                     pref * (a + 2.0 / N) - xi * p_n, p_0, p_nm1, p_n,
                     pref * ((-1.0) ** N * (a - 2.0 / N))], axis=1)
    rows = np.ones((5, N + 1))
    rows[2, 1::2] = -1.0
    rows[1] = rows[2] * x
    rows[0] = rows[1] * x
    rows[3] = x
    return scale, coef, rows


def _primitive_tables(N):
    """``(cosines, sines, windows)``: the roots of unity of
    ``_lagrange_primitive_terms`` and the windows of ``_lagrange_primitive_values``.

    Two real FFTs of length 2N fill them.  Of a unit impulse one gives the
    FFT's own roots of unity, cos and sin of k theta for k = 0..N, with
    cos(pi/3) = 1/2 exactly at N = 3 (np.cos(np.pi / 3) is an ulp high).
    Of 1/j, j = 1..N-2, the other gives S(0..N).  It runs in long double
    and rounds once: a double FFT's S is a few ulps off, which put G 9.5
    eps max|G| from an extended-precision reference at N = 511 and 14 at
    N = 383, against 3.3 and 4.7 from this table.  (numpy before 2.0
    transforms long double input in double.)  The window table runs over
    m = -N/2 .. N + N/2 by oddness and periodicity, and S(i+k),
    S(i-k) = -S(k-i) are its windows.
    """
    half = N // 2
    impulse = np.zeros(2 * N)
    impulse[1] = 1.0
    roots = np.fft.rfft(impulse)
    cosines, sines = roots.real, -roots.imag
    harmonic = np.zeros(2 * N, dtype=np.longdouble)
    harmonic[1 : N - 1] = 1 / np.arange(1, N - 1, dtype=np.longdouble)
    s = -np.fft.rfft(harmonic).imag.astype(np.float64)
    table = np.concatenate([-s[half:0:-1], s, -s[N - 1 : N - 1 - half : -1]])
    windows = np.lib.stride_tricks.sliding_window_view(table, N + 1)
    return cosines, sines, windows


@_degree_memo
def _green_factors(N):
    # the one set-up of green_matrix and the dense apply: the sine-sum
    # windows, the per-column scale, the rank-5 coefficients with their
    # chord, the five node rows, the grid's points and minus the table's
    # rfft.  Read-only, and kept in the memo for the next call at this N
    x = cgl_points(N)
    half = N // 2
    xi = x[: half + 1, None]
    tables = _primitive_tables(N)
    windows = tables[2]
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
    # the coefficients of x and 1.  At the ends the sine sums are single
    # entries of S(0..N), S odd with period 2N: D_i = 2 S(i) at x_0 and
    # -2 S(N-i) at x_N.  The end values go term by term, the primitive then
    # times x - x_i: from the product's rows they move G(3)[1, 1] off -0.25
    ends = [0, N]
    S = windows[half]
    h = 2.0 * np.stack([S[: half + 1], -S[::-1][: half + 1]], axis=1)
    h *= scale[:, None]
    h += p_nm1[:, None] * nodes[1, ends]
    h += p_n[:, None] * nodes[2, ends]
    h += p_0[:, None]
    u = h * (x[ends] - xi)
    if N % 2:  # P_i(1) - P_i(-1) is -2 P_i(-1) at odd N, 0 at even N
        u[:, 0] += 2.0 * anchor
    coef[:, 3] -= 0.5 * (u[:, 0] - u[:, 1])
    coef[:, 4] -= 0.5 * (u[:, 0] + u[:, 1])
    # minus S(-N/2 .. 3N/2)'s rfft at L, the least even 5-smooth L >= 2 (N/2)
    # + N + 1, where the dense apply's correlation wraps nothing it keeps
    table = np.concatenate([windows[:, 0], windows[-1, 1:]])
    n = table.size
    odd = (3**b * 5**c for b in range(n.bit_length()) for c in range(n.bit_length()))
    L = min(2 * q << (-(-n // (2 * q)) - 1).bit_length() for q in odd)
    return windows, scale, coef, nodes, x, -np.fft.rfft(table, L)
