"""Coefficient-space calculus and anchored primitives of nodal bases.

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
Of the steps only the antidifferentiation is public (:func:`integrate_coeffs`).
"""

import numpy as np

from .core import NodeVector, CoeffVector, _basis_index, _cgl_weight_signs, _grid_degree, _require_type

__all__ = [
    "integrate_coeffs",
    "lagrange_integrals",
]


def integrate_coeffs(uhat):
    """Antidifferentiate in coefficient space.

    out[0] = u[1]/4, out[1] = u[0] - u[2]/2, out[j] = (u[j-1] - u[j+1])/(2j)
    for j >= 2, with out-of-range entries read as zero.  The output has the
    same length as the input and represents a primitive of it up to an
    additive constant.

    The input must end in at least two zeros (the padded shape): with a
    nonzero top coefficient the degree-raised primitive would be silently
    truncated.
    """
    _require_type(uhat, CoeffVector, "integrate_coeffs")
    vals = uhat.values
    if vals.size < 3:
        raise ValueError("integration needs at least three coefficients")
    if vals[-1] != 0.0 or vals[-2] != 0.0:
        raise ValueError(
            "integration needs two trailing zero coefficients; "
            "pad the vector with zeros first or the primitive would be truncated"
        )
    return CoeffVector(_antiderivative_raw(vals))


def _antiderivative_raw(c):
    # unchecked core of integrate_coeffs, along the last axis; callers
    # guarantee enough padding
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


def _lagrange_primitive_values(i, N, tables=None):
    """Node values (coarse grid) of the primitive of the i-th Lagrange basis
    polynomial, before any integration constant is fixed.

    For an array of k basis indices the result is a (k, N+1) block, row r
    for index i[r], with the same bits as the per-index calls.

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
    three rank-1 terms.  Rows with i > N/2 come from the mirror identity
    h(N-i) = -h(i)[::-1] applied to computed rows, so the symmetry holds
    bit for bit and the table only spans m = -N/2 .. 3N/2.

    ``tables`` is ``_primitive_tables(N)``, built here when not given, so
    that several calls at one degree can share one.
    """
    i = np.asarray(i)
    rows = np.atleast_1d(i)
    j = np.minimum(rows, N - rows)
    half = N // 2
    cosines, sines, windows = _primitive_tables(N) if tables is None else tables
    h = windows[half + j]  # a copy: the rows are gathered
    h -= windows[half - j]
    weight = np.where(j == 0, 1.0 / N, 2.0 / N)  # (2/N) w_i
    h *= (0.5 * weight * sines[j])[:, None]
    # the rank-1 terms at T_0, T_{N-1} and T_N, from c_m = (2/N) w_i
    # cos(i m theta), the coefficient of l_i without its w_m; the
    # antiderivative takes c_0 at this full value.  At N = 1 the T_{N-1}
    # term is the fold alone; at N = 1 and 2 the sine sum is empty.
    parity = np.where(j % 2 == 0, 1.0, -1.0)
    c_1 = weight * cosines[j]
    c_n = weight * parity  # c_N before its w_N = 1/2
    p_0 = c_1 / (8.0 if N == 1 else 4.0)  # w_1 c_1 / 4; T_1 is T_N at N = 1
    p_n = parity * c_1 / (2.0 * N)  # c_{N-1} / (2N)
    p_nm1 = 0.5 * c_n / (2.0 * (N + 1))  # the folded T_{N+1}, w_N c_N / (2(N+1))
    if N >= 2:  # (c_{N-2} - w_N c_N) / (2(N-1))
        p_nm1 += (parity * weight * cosines[2 * j] - 0.5 * c_n) / (2.0 * (N - 1))
    node_sign = np.ones(N + 1)  # (-1)^k
    node_sign[1::2] = -1.0
    h += p_nm1[:, None] * (node_sign * cosines)
    h += p_n[:, None] * node_sign
    h += p_0[:, None]
    far = rows > N - rows
    h[far] = -h[far, ::-1]
    return h.reshape(i.shape + (N + 1,))


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


def lagrange_integrals(i, N):
    """Integrals of the i-th degree-N Lagrange basis polynomial up to each node.

    Returns ``(up, down)``, two NodeVectors: ``up.values[k]`` is the
    integral of l_i over [-1, x_k], so it vanishes at the last node, and
    ``down.values[k]`` over [x_k, 1], vanishing at the first.  Exact up to
    round-off: the primitive's Chebyshev coefficients have a closed form,
    the one above N is folded onto T_{N-1}, which takes the same values at
    the degree-N nodes, and the node values come from one table of sine
    sums, read along Toeplitz and Hankel diagonals, with no transform.

    Parameters
    ----------
    i : int
        Basis index, 0 <= i <= N.
    N : int
        Grid degree, N >= 1.

    Returns
    -------
    tuple of NodeVector
    """
    N = _grid_degree(N)
    i = _basis_index(i, N)
    p = _lagrange_primitive_values(i, N)
    return NodeVector(p - p[-1], N), NodeVector(p[0] - p, N)


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
