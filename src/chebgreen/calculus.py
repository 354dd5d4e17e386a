"""Antiderivative and primitive kernels of the two Green-matrix paths.

Integrals of grid polynomials are exact up to round-off.  A degree-N
integrand has a degree-(N+1) primitive, and the coefficients above N fold
back onto lower indices: at the degree-N CGL nodes T_{2N-m}(x_j) = T_m(x_j),
so T_{N+1} and T_{N-1} take the same node values, as do T_{N+2} and T_{N-2}
(Trefethen, *Approximation Theory and Approximation Practice*, ch. 4).  The
matrix-free apply in :mod:`.green` pads, antidifferentiates and folds
between two transforms at the grid's own length N+1.  The Lagrange
primitives here need no transform per basis function: their coefficients
are closed-form sines, and a product-to-sum identity turns their node
values into Toeplitz and Hankel reads of one table of sine sums plus three
rank-1 terms (the structure of Townsend, Webb & Olver, "Fast polynomial
transforms based on Toeplitz and Hankel matrices", *Math. Comp.* 2018).
The node-polynomial primitive needs no transform either: by the same
aliasing its node values are a closed form in the cosines of that table.
The module is private: its unchecked kernels take arguments that
:mod:`.green` has already checked.
"""

import numpy as np

from .core import _cgl_weight_signs


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


def _lagrange_primitive_values(idx, N, tables):
    """Node values (coarse grid) of the primitives of the Lagrange basis
    polynomials l_i for the half-column indices 0 <= i <= N/2 in the 1-d
    array idx, before any integration constant is fixed: a (k, N+1) block,
    row r for index idx[r].

    No transform runs per index.  With theta = pi/N and w_i = 1/2 at
    i = 0, N and 1 elsewhere, l_i has the Chebyshev coefficients
    (2/N) w_i w_m cos(i m theta).  Antidifferentiated, those at
    1 <= m <= N-2 become (2/N) w_i sin(i theta) sin(i m theta)/m, and a
    product-to-sum identity gives their cosine sum at node k as

        (w_i sin(i theta)/N) [S(i+k) + S(i-k)],
        S(m) = sum_{j=1}^{N-2} sin(j m theta)/j,

    one table read along a Toeplitz (i+k) and a Hankel (i-k) diagonal.  S
    is odd with period 2N, so one real FFT of 1/j gives all of it.  The
    coefficients at T_0, T_{N-1} (holding the folded T_{N+1}) and T_N add
    three rank-1 terms.  As i <= N/2, the table only spans
    m = -N/2 .. 3N/2; :func:`.green.green_matrix` mirrors the other
    half-columns.

    ``tables`` is ``_primitive_tables(N)``, which several calls at one
    degree share.
    """
    half = N // 2
    cosines, sines, windows = tables
    h = windows[half + idx]  # a copy: the rows are gathered
    h -= windows[half - idx]
    weight = np.where(idx == 0, 1.0 / N, 2.0 / N)  # (2/N) w_i
    h *= (0.5 * weight * sines[idx])[:, None]
    # the rank-1 terms at T_0, T_{N-1} and T_N, from c_m = (2/N) w_i
    # cos(i m theta), the coefficient of l_i without its w_m; the
    # antiderivative takes c_0 at this full value.  At N = 1 the T_{N-1}
    # term is the fold alone; at N = 1 and 2 the sine sum is empty.
    parity = np.where(idx % 2 == 0, 1.0, -1.0)
    c_1 = weight * cosines[idx]
    c_n = weight * parity  # c_N before its w_N = 1/2
    p_0 = c_1 / (8.0 if N == 1 else 4.0)  # w_1 c_1 / 4; T_1 is T_N at N = 1
    p_n = parity * c_1 / (2.0 * N)  # c_{N-1} / (2N)
    p_nm1 = 0.5 * c_n / (2.0 * (N + 1))  # the folded T_{N+1}, w_N c_N / (2(N+1))
    if N >= 2:  # (c_{N-2} - w_N c_N) / (2(N-1))
        p_nm1 += (parity * weight * cosines[2 * idx] - 0.5 * c_n) / (2.0 * (N - 1))
    node_sign = np.ones(N + 1)  # (-1)^k
    node_sign[1::2] = -1.0
    h += p_nm1[:, None] * (node_sign * cosines)
    h += p_n[:, None] * node_sign
    h += p_0[:, None]
    return h


def _primitive_tables(N):
    """``(cosines, sines, windows)``, the tables of ``_lagrange_primitive_values``.

    One real FFT of length 2N fills them.  Of a unit impulse it gives the
    FFT's own roots of unity, cos and sin of k theta for k = 0..N, with
    cos(pi/3) = 1/2 exactly at N = 3 (np.cos(np.pi / 3) is an ulp high); of
    1/j, j = 1..N-2, it gives S(0..N).  The window table runs over
    m = -N/2 .. N + N/2 by oddness and periodicity, and S(i+k),
    S(i-k) = -S(k-i) are its windows.
    """
    half = N // 2
    signal = np.zeros((2, 2 * N))
    signal[0, 1] = 1.0
    signal[1, 1 : N - 1] = 1.0 / np.arange(1, N - 1)
    spectra = np.fft.rfft(signal)
    cosines, sines, s = spectra[0].real, -spectra[0].imag, -spectra[1].imag
    table = np.concatenate([-s[half:0:-1], s, -s[N - 1 : N - 1 - half : -1]])
    windows = np.lib.stride_tricks.sliding_window_view(table, N + 1)
    return cosines, sines, windows


def _node_poly_factors(i, N, cosines):
    """Factors of the anchor-free node-polynomial primitive.

    Returns ``(scale, q)``: q holds the node values of
    T_{N+2}/(N+2) - 2 T_N/N + T_{N-2}/(N-2), shared by every index, and
    scale is the unscaled CGL weight of index i (``core._cgl_weight_signs``,
    +-1 halved at the endpoints) over 4N; an array of indices gives an
    array of scales.  The primitive for index i is scale * q.

    At the nodes T_{N+-2}(x_k) = (-1)^k cos(2k pi/N) and T_N(x_k) = (-1)^k,
    so q_k = (-1)^k [cos(2k pi/N) (1/(N+2) + 1/(N-2)) - 2/N], with
    cos(m pi/N), m = 0..N, read from ``cosines`` (the first table of
    ``_primitive_tables(N)``).  At N = 2 the T_{N-2}/(N-2) term stands for
    a constant, which anchoring removes; at N = 1, T_{-1} = T_1.
    """
    k = np.arange(N + 1)
    c = 0.0 if N == 2 else 1.0 / (N - 2)
    q = cosines[np.minimum(2 * k, 2 * N - 2 * k)] * (1.0 / (N + 2) + c) - 2.0 / N
    q[1::2] = -q[1::2]
    return _cgl_weight_signs(N)[i] / (4.0 * N), q
