"""The antiderivative and primitive kernels of the two Green-matrix paths,
against references that share none of their code: numpy's Chebyshev and
monomial calculus, long double sums and a fine-grid transform pipeline."""

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as nppoly

from chebgreen import cgl_points
from chebgreen.calculus import (_antiderivative_raw, _lagrange_primitive_values, _node_poly_factors,
                                _primitive_tables)
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


@pytest.mark.parametrize("N", [3, 4, 7, 64, 257])
def test_lagrange_primitive_block_matches_per_index_calls_bitwise(N):
    tables = _primitive_tables(N)
    for idx in (np.arange(N // 2 + 1), np.array([N // 2, 0, 1])):
        block = _lagrange_primitive_values(idx, N, tables)
        per_index = [_lagrange_primitive_values(np.array([i]), N, tables) for i in idx]
        assert _same_bits(block, np.concatenate(per_index))


def test_lagrange_primitive_matches_extended_precision_direct_sum():
    # reference in long double: the coefficients (2/N) w_i w_j cos(pi i j/N),
    # the antiderivative recurrence with T_{N+1} folded onto T_{N-1}, and the
    # cosine sum at the nodes, all without a transform; measured worst case
    # 2.1 ulps of the block's maximum
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
    got = _lagrange_primitive_values(rows, N, _primitive_tables(N))
    eps = np.finfo(np.float64).eps
    assert np.abs(got - ref).max() <= 4 * eps * np.abs(ref).max()


def _fine_grid_primitive_values(i, N):
    """Reference for _lagrange_primitive_values without the fold: transform
    the unit vectors, antidifferentiate on 2N + 2 coefficients, evaluate on
    the degree-2N grid and keep its even-index nodes, the degree-N grid."""
    e = np.equal.outer(i, np.arange(N + 1)).astype(np.float64)
    lhat = _node_to_coeff_values(e)
    ext = np.concatenate([lhat, np.zeros(lhat.shape[:-1] + (N + 1,))], axis=-1)
    return _coeff_to_node_values(_antiderivative_raw(ext)[..., : 2 * N + 1])[..., ::2]


@pytest.mark.parametrize("N", list(range(1, 13)) + [63, 64, 65, 256, 1024, 2048])
def test_lagrange_primitive_fold_matches_fine_grid_reference(N):
    # every half-column index, in blocks of 64; measured worst case 4.4 ulps
    # at N = 2048
    eps = np.finfo(np.float64).eps
    tables = _primitive_tables(N)
    for start in range(0, N // 2 + 1, 64):
        idx = np.arange(start, min(start + 64, N // 2 + 1))
        got = _lagrange_primitive_values(idx, N, tables)
        ref = _fine_grid_primitive_values(idx, N)
        assert np.abs(got - ref).max() <= 8 * eps * np.abs(ref).max(), start


# ---------------------------------------------------------------------------
# Lagrange-basis primitives


def _lagrange_integrals(i, N):
    """(up, down): the integral of l_i over [-1, x_k], vanishing at the last
    node, and over [x_k, 1], vanishing at the first."""
    p = _lagrange_primitive_values(np.array([i]), N, _primitive_tables(N))[0]
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
    # the node-polynomial primitive taken from x = -1, as green_matrix
    # subtracts it from column i
    scale, q = _node_poly_factors(i, N, _primitive_tables(N)[0])
    return scale * (q - q[-1])


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
    for i in range(N + 1):
        up_ref = lam[i] * (nppoly.polyval(x, prim) - nppoly.polyval(-1.0, prim))
        up = _node_poly_up(i, N)
        np.testing.assert_allclose(up, up_ref, rtol=0, atol=1e-13)
        assert up[-1] == 0.0


@pytest.mark.parametrize("N", list(range(3, 13)) + [63, 64, 65, 256, 1024, 2048, 4096])
def test_node_poly_primitive_matches_closed_form_bitwise(N):
    # q holds the node values of T_{N+2}/(N+2) - 2 T_N/N + T_{N-2}/(N-2).
    # The reference evaluates it on the degree-2N grid with one transform;
    # the closed-form node values agree with it to a few ulps, bit for bit
    # at N = 3 and 4.
    base = np.zeros(2 * N + 1)
    base[N - 2] = 1.0 / (N - 2)
    base[N] = -2.0 / N
    base[N + 2] = 1.0 / (N + 2)
    q_fine = _coeff_to_node_values(base)[::2]
    _, q = _node_poly_factors(0, N, _primitive_tables(N)[0])
    if N in (3, 4):
        assert _same_bits(q, q_fine)
    eps = np.finfo(np.float64).eps
    assert np.abs(q - q_fine).max() <= 4 * eps * np.abs(q_fine).max()

