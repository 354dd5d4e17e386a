"""Coefficient-space integration and the anchored primitive pairs."""

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as nppoly

from chebgreen import (
    CoeffVector,
    NodeVector,
    cgl_points,
    extend,
    integrate_coeffs,
    lagrange_integrals,
    node_poly_primitive,
    reduce_fine_to_coarse,
)
from chebgreen.calculus import _antiderivative_raw, _lagrange_primitive_values
from chebgreen.core import _coeff_to_node_values, barycentric_weights_cgl


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_extend_pads_with_zeros():
    out = extend(CoeffVector([1.0, 2.0]), 3)
    np.testing.assert_array_equal(out.values, [1.0, 2.0, 0.0, 0.0, 0.0])
    same = extend(CoeffVector([1.0, 2.0]), 0)
    np.testing.assert_array_equal(same.values, [1.0, 2.0])
    with pytest.raises(ValueError):
        extend(CoeffVector([1.0]), -1)


def test_integrate_known_triples():
    got = integrate_coeffs(CoeffVector([1.0, 0.0, 0.0]))
    np.testing.assert_array_equal(got.values, [0.0, 1.0, 0.0])
    got = integrate_coeffs(CoeffVector([0.0, 1.0, 0.0, 0.0]))
    np.testing.assert_array_equal(got.values, [0.25, 0.0, 0.25, 0.0])
    got = integrate_coeffs(CoeffVector([0.0, 0.0, 1.0, 0.0, 0.0]))
    np.testing.assert_allclose(got.values, [0.0, -0.5, 0.0, 1.0 / 6.0, 0.0], rtol=0, atol=1e-16)


def test_integrate_requires_two_trailing_zeros():
    with pytest.raises(ValueError):
        integrate_coeffs(CoeffVector([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        integrate_coeffs(CoeffVector([1.0, 0.0, 3e-300]))  # almost zero is not zero
    with pytest.raises(ValueError):
        integrate_coeffs(CoeffVector([1.0, 0.0]))  # too short


@pytest.mark.parametrize("n", [3, 4, 9, 40])
def test_integrate_inverts_differentiation(n):
    # differentiating the antiderivative must reproduce the input
    rng = np.random.default_rng(n)
    c = np.zeros(n + 2)
    c[:n] = rng.standard_normal(n)
    out = integrate_coeffs(CoeffVector(c)).values
    np.testing.assert_allclose(npcheb.chebder(out), c[:-1], rtol=0, atol=1e-13)


def test_integrate_matches_reference_antiderivative():
    rng = np.random.default_rng(5)
    c = np.zeros(9)
    c[:7] = rng.standard_normal(7)
    got = integrate_coeffs(CoeffVector(c)).values
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
    for idx in (np.arange(N // 2 + 1), np.array([N]), np.array([N, 0, 1])):
        block = _lagrange_primitive_values(idx, N)
        assert _same_bits(block, np.stack([_lagrange_primitive_values(i, N) for i in idx]))


def test_reduce_fine_to_coarse():
    v = np.arange(9.0)
    np.testing.assert_array_equal(reduce_fine_to_coarse(v), [0.0, 2.0, 4.0, 6.0, 8.0])
    with pytest.raises(ValueError):
        reduce_fine_to_coarse(np.arange(4.0))  # even length has no coarse twin


# ---------------------------------------------------------------------------
# Lagrange-basis primitives


def test_lagrange_integrals_degree_two_values():
    pair = lagrange_integrals(1, 2)  # l_1 = 1 - x^2
    np.testing.assert_allclose(pair.up.values, [4.0 / 3.0, 2.0 / 3.0, 0.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(pair.down.values, [0.0, 2.0 / 3.0, 4.0 / 3.0], rtol=0, atol=1e-15)
    pair = lagrange_integrals(0, 2)  # l_0 = x(x+1)/2
    np.testing.assert_allclose(pair.up.values, [1.0 / 3.0, -1.0 / 12.0, 0.0], rtol=0, atol=1e-15)


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8])
def test_lagrange_integrals_anchoring(N):
    for i in range(N + 1):
        pair = lagrange_integrals(i, N)
        assert pair.up.values[-1] == 0.0
        assert pair.down.values[0] == 0.0
        # up + down is the full integral, constant across nodes
        total = pair.up.values + pair.down.values
        np.testing.assert_allclose(total, total[0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("N", [2, 4, 7])
def test_lagrange_integrals_against_monomial_reference(N):
    # expand l_i in monomials and integrate exactly
    x = cgl_points(N)
    for i in range(N + 1):
        roots = np.delete(x, i)
        li = nppoly.polyfromroots(roots) / np.prod(x[i] - roots)
        prim = nppoly.polyint(li)
        up_ref = nppoly.polyval(x, prim) - nppoly.polyval(-1.0, prim)
        pair = lagrange_integrals(i, N)
        np.testing.assert_allclose(pair.up.values, up_ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            pair.down.values, up_ref[0] - up_ref, rtol=0, atol=1e-13
        )


def test_lagrange_integrals_rejects_bad_indices():
    with pytest.raises(ValueError):
        lagrange_integrals(3, 2)
    with pytest.raises(ValueError):
        lagrange_integrals(-1, 2)
    with pytest.raises(ValueError):
        lagrange_integrals(0, 0)


# ---------------------------------------------------------------------------
# node-polynomial primitives


def test_node_poly_primitive_endpoint_value():
    pair = node_poly_primitive(0, 3)
    assert abs(pair.up.values[0] - 2.0 / 45.0) < 1e-16


@pytest.mark.parametrize("N", [3, 5, 7])
def test_node_poly_primitive_against_monomial_reference(N):
    # reference: lambda_i times the integral of prod_j (x - x_j)
    x = cgl_points(N)
    lam = barycentric_weights_cgl(N)
    omega = nppoly.polyfromroots(x)
    prim = nppoly.polyint(omega)
    for i in range(N + 1):
        up_ref = lam[i] * (nppoly.polyval(x, prim) - nppoly.polyval(-1.0, prim))
        pair = node_poly_primitive(i, N)
        np.testing.assert_allclose(pair.up.values, up_ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(pair.down.values, up_ref[0] - up_ref, rtol=0, atol=1e-13)
        assert pair.up.values[-1] == 0.0
        assert pair.down.values[0] == 0.0


@pytest.mark.parametrize("N", [3, 4, 11, 64])
def test_node_poly_primitive_matches_closed_form_bitwise(N):
    # (lambda_i / 2^(N+1)) (T_{N+2}/(N+2) - 2 T_N/N + T_{N-2}/(N-2)) with the
    # weight scale cancelled to +-1/(4N), halved at the endpoints
    base = np.zeros(2 * N + 1)
    base[N - 2] = 1.0 / (N - 2)
    base[N] = -2.0 / N
    base[N + 2] = 1.0 / (N + 2)
    q = _coeff_to_node_values(base)[::2]
    for i in range(N + 1):
        sign = 1.0 if i % 2 == 0 else -1.0
        halving = 0.5 if i in (0, N) else 1.0
        p = (sign * halving / (4.0 * N)) * q
        pair = node_poly_primitive(i, N)
        assert _same_bits(pair.up.values, p - p[-1])
        assert _same_bits(pair.down.values, p[0] - p)


def test_node_poly_primitive_needs_degree_three():
    with pytest.raises(ValueError):
        node_poly_primitive(0, 2)
    with pytest.raises(ValueError):
        node_poly_primitive(4, 3)
