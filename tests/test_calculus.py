"""The antiderivative and primitive kernels of the two Green-matrix paths,
against references that share none of their code: numpy's Chebyshev and
monomial calculus, long double sums and a fine-grid transform pipeline."""

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as nppoly

from chebgreen import cgl_points
from chebgreen.calculus import (_antiderivative_raw, _lagrange_primitive_terms,
                                _lagrange_primitive_values, _primitive_tables)
from chebgreen.core import _coeff_to_node_values, _node_to_coeff_values
from chebgreen.oracle import barycentric_weights_general


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_integrate_known_triples():
    # inputs padded with two trailing zeros, as the kernel's callers pad them
    got = _antiderivative_raw(np.array([1.0, 0.0, 0.0]))
    np.testing.assert_array_equal(got, [0.0, 1.0, 0.0])
    got = _antiderivative_raw(np.array([0.0, 1.0, 0.0, 0.0]))
    np.testing.assert_array_equal(got, [0.25, 0.0, 0.25, 0.0])
    got = _antiderivative_raw(np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
    np.testing.assert_allclose(got, [0.0, -0.5, 0.0, 1.0 / 6.0, 0.0], rtol=0, atol=1e-16)


@pytest.mark.parametrize("n", [3, 4, 9, 40])
def test_integrate_inverts_differentiation(n):
    # differentiating the antiderivative must reproduce the input
    rng = np.random.default_rng(n)
    c = np.zeros(n + 2)
    c[:n] = rng.standard_normal(n)
    out = _antiderivative_raw(c)
    np.testing.assert_allclose(npcheb.chebder(out), c[:-1], rtol=0, atol=1e-13)


def test_integrate_matches_reference_antiderivative():
    rng = np.random.default_rng(5)
    c = np.zeros(9)
    c[:7] = rng.standard_normal(7)
    got = _antiderivative_raw(c)
    ref = npcheb.chebint(c)[: c.size]
    # anchoring constants differ; compare everything above T_0
    np.testing.assert_allclose(got[1:], ref[1:], rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 65, 2049])
def test_antiderivative_rows_match_one_dimensional_calls_bitwise(n):
    rng = np.random.default_rng(n)
    C = rng.standard_normal((6, n))
    C[:, -2:] = 0.0
    C[2] = -0.0
    assert _same_bits(_antiderivative_raw(C), np.stack([_antiderivative_raw(c) for c in C]))


def _lagrange_primitive(idx, N, tables):
    """Node values of the Lagrange primitives for the half-column indices
    in idx, rebuilt from the kernel's parts: each index's sine-sum row
    times its scale, then the rank-1 terms p_{N-1} sigma x, p_N sigma and
    p_0 added in turn."""
    scale, coef, rows = _lagrange_primitive_terms(N, tables, cgl_points(N))
    h = np.concatenate([_lagrange_primitive_values(slice(i, i + 1), N, tables) for i in idx])
    h *= scale[idx, None]
    h += coef[idx, 4, None] * rows[1]
    h += coef[idx, 5, None] * rows[2]
    h += coef[idx, 3, None]
    return h


@pytest.mark.parametrize("N", [1, 2, 3, 4, 7, 64, 257])
def test_lagrange_primitive_block_matches_per_index_calls_bitwise(N):
    # the block's two strided window reads hold the bits of a row-by-row
    # gather of S(i+k) + S(i-k), one call per index
    tables = _primitive_tables(N)
    half = N // 2
    windows = tables[2]
    for cols in (slice(0, half + 1), slice(half // 2, half + 1), slice(half, half + 1), slice(0, 1)):
        block = _lagrange_primitive_values(cols, N, tables)
        per_index = [_lagrange_primitive_values(slice(i, i + 1), N, tables)
                     for i in range(cols.start, cols.stop)]
        assert _same_bits(block, np.concatenate(per_index))
        idx = np.arange(cols.start, cols.stop)
        assert _same_bits(block, windows[half + idx] - windows[half - idx])


def test_lagrange_primitive_matches_extended_precision_direct_sum():
    # reference in long double: the coefficients (2/N) w_i w_j cos(pi i j/N),
    # the antiderivative recurrence with T_{N+1} folded onto T_{N-1}, and the
    # cosine sum at the nodes, all without a transform; measured worst case
    # 1.4 ulps of the block's maximum (2.1 with the sine sums from a double FFT)
    if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        pytest.skip("long double is no wider than double on this platform")
    N = 1024
    rows = np.array([0, 1, N // 3, N // 2])
    LD = np.longdouble
    m = np.arange(N + 1)
    cosines = np.cos(np.arccos(LD(-1)) * np.arange(2 * N, dtype=LD) / N)
    w = np.ones(N + 1, dtype=LD)
    w[[0, N]] = LD(0.5)
    c = np.zeros((rows.size, N + 3), dtype=LD)
    c[:, : N + 1] = (LD(2) / N) * w[rows, None] * w * cosines[np.multiply.outer(rows, m) % (2 * N)]
    p = np.zeros((rows.size, N + 2), dtype=LD)
    p[:, 0] = c[:, 1] / 4
    p[:, 1] = c[:, 0] - c[:, 2] / 2
    k = np.arange(2, N + 2)
    p[:, 2:] = (c[:, 1 : N + 1] - c[:, 3:]) / (2 * k)
    p[:, N - 1] += p[:, N + 1]
    ref = p[:, : N + 1] @ cosines[np.multiply.outer(m, m) % (2 * N)]
    got = _lagrange_primitive(rows, N, _primitive_tables(N))
    eps = np.finfo(np.float64).eps
    assert np.abs(got - ref).max() <= 4 * eps * np.abs(ref).max()


def test_fft_transforms_long_double_in_long_double():
    # _primitive_tables runs the sine-sum FFT in long double, which needs
    # numpy 2.0: before it, np.fft transforms long double input in double,
    # and G then lands 9.5 eps max|G| from the extended-precision reference
    # at N = 511
    if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        pytest.skip("long double is no wider than double on this platform")
    assert np.fft.rfft(np.ones(8, dtype=np.longdouble)).dtype == np.clongdouble


def _fine_grid_primitive_values(i, N):
    """Reference for _lagrange_primitive without the fold: transform
    the unit vectors, antidifferentiate on 2N + 2 coefficients, evaluate on
    the degree-2N grid and keep its even-index nodes, the degree-N grid."""
    e = np.equal.outer(i, np.arange(N + 1)).astype(np.float64)
    lhat = _node_to_coeff_values(e)
    ext = np.concatenate([lhat, np.zeros(lhat.shape[:-1] + (N + 1,))], axis=-1)
    return _coeff_to_node_values(_antiderivative_raw(ext)[..., : 2 * N + 1])[..., ::2]


@pytest.mark.parametrize("N", list(range(1, 13)) + [63, 64, 65, 256, 1024, 2048])
def test_lagrange_primitive_fold_matches_fine_grid_reference(N):
    # every half-column index, in blocks of 64; measured worst case 3.8 ulps
    # at N = 2048
    eps = np.finfo(np.float64).eps
    tables = _primitive_tables(N)
    for start in range(0, N // 2 + 1, 64):
        idx = np.arange(start, min(start + 64, N // 2 + 1))
        got = _lagrange_primitive(idx, N, tables)
        ref = _fine_grid_primitive_values(idx, N)
        assert np.abs(got - ref).max() <= 8 * eps * np.abs(ref).max(), start


# ---------------------------------------------------------------------------
# Lagrange-basis primitives


def _lagrange_integrals(i, N):
    """(up, down): the integral of l_i over [-1, x_k], vanishing at the last
    node, and over [x_k, 1], vanishing at the first."""
    p = _lagrange_primitive(np.array([i]), N, _primitive_tables(N))[0]
    return p - p[-1], p[0] - p


def test_lagrange_integrals_degree_two_values():
    up, down = _lagrange_integrals(1, 2)  # l_1 = 1 - x^2
    np.testing.assert_allclose(up, [4.0 / 3.0, 2.0 / 3.0, 0.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(down, [0.0, 2.0 / 3.0, 4.0 / 3.0], rtol=0, atol=1e-15)
    up, _ = _lagrange_integrals(0, 2)  # l_0 = x(x+1)/2
    np.testing.assert_allclose(up, [1.0 / 3.0, -1.0 / 12.0, 0.0], rtol=0, atol=1e-15)


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8])
def test_lagrange_integrals_anchoring(N):
    for i in range(N // 2 + 1):
        up, down = _lagrange_integrals(i, N)
        assert up[-1] == 0.0
        assert down[0] == 0.0
        # up + down is the full integral, constant across nodes
        total = up + down
        np.testing.assert_allclose(total, total[0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("N", [2, 4, 7])
def test_lagrange_integrals_against_monomial_reference(N):
    # expand l_i in monomials and integrate exactly
    x = cgl_points(N)
    for i in range(N // 2 + 1):
        roots = np.delete(x, i)
        li = nppoly.polyfromroots(roots) / np.prod(x[i] - roots)
        prim = nppoly.polyint(li)
        up_ref = nppoly.polyval(x, prim) - nppoly.polyval(-1.0, prim)
        up, down = _lagrange_integrals(i, N)
        np.testing.assert_allclose(up, up_ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(down, up_ref[0] - up_ref, rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# node-polynomial primitives


def _node_poly_up(i, N):
    # the node-polynomial primitive P_i as the kernel's column terms carry
    # it: (x - x_i) times the Lagrange primitive's rank-1 terms less the
    # column's rank-5 part, taken from x = -1, where it must match the
    # kernel's P_i(-1); i is a half-column index
    x = cgl_points(N)
    _, coef, rows = _lagrange_primitive_terms(N, _primitive_tables(N), x)
    alpha, beta, gamma, _, p_nm1, p_n, p_end = coef[i]
    p = ((p_nm1 - alpha) * rows[0] + (p_n - x[i] * p_nm1 - beta) * rows[1]
         - (x[i] * p_n + gamma) * rows[2])
    assert abs(p[-1] - p_end) <= 4 * np.finfo(np.float64).eps * np.abs(p).max()
    return p - p[-1]


def test_node_poly_primitive_endpoint_value():
    assert abs(_node_poly_up(0, 3)[0] - 2.0 / 45.0) < 1e-16


@pytest.mark.parametrize("N", [1, 2, 3, 5, 7])
def test_node_poly_primitive_against_monomial_reference(N):
    # reference: lambda_i times the integral of prod_j (x - x_j), with the
    # weights by the defining product, scale and all
    x = cgl_points(N)
    lam = barycentric_weights_general(x)
    omega = nppoly.polyfromroots(x)
    prim = nppoly.polyint(omega)
    for i in range(N // 2 + 1):
        up_ref = lam[i] * (nppoly.polyval(x, prim) - nppoly.polyval(-1.0, prim))
        up = _node_poly_up(i, N)
        np.testing.assert_allclose(up, up_ref, rtol=0, atol=1e-13)
        assert up[-1] == 0.0
