"""The slow reference implementations used to cross-check the fast paths."""

import numpy as np
import pytest

from chebgreen import cgl_points
from chebgreen.core import dct1
from chebgreen.oracle import (
    barycentric_weights_general,
    dct1_naive,
    green_matrix_dense_oracle,
    lagrange_monomial_coeffs,
)


def test_general_weights_two_and_three_points():
    np.testing.assert_array_equal(barycentric_weights_general([1.0, -1.0]), [0.5, -0.5])
    np.testing.assert_array_equal(
        barycentric_weights_general([1.0, 0.0, -1.0]), [0.5, -1.0, 0.5]
    )


def test_general_weights_proportional_to_closed_form():
    # on the CGL grid the defining product reproduces the closed form
    # (-1)^j 2^(N-1)/N with the two endpoint entries halved
    g = barycentric_weights_general(cgl_points(4))
    c = np.array([1.0, -2.0, 2.0, -2.0, 1.0])
    ratio = g[0] / c[0]
    np.testing.assert_allclose(g, ratio * c, rtol=1e-15)


def test_general_weights_guards():
    with pytest.raises(ValueError):
        barycentric_weights_general([1.0, 1.0, 0.0])  # repeated point
    with pytest.raises(ValueError):
        barycentric_weights_general([1.0])
    with pytest.raises(ValueError):
        barycentric_weights_general(np.linspace(-1, 1, 41))  # too many points


# ---------------------------------------------------------------------------
# monomial expansion


def test_lagrange_monomial_small_grid():
    np.testing.assert_allclose(lagrange_monomial_coeffs(1, 2), [1.0, 0.0, -1.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(lagrange_monomial_coeffs(0, 2), [0.0, 0.5, 0.5], rtol=0, atol=1e-15)


@pytest.mark.parametrize("N", [1, 4, 8])
def test_lagrange_monomial_kronecker_property(N):
    V = np.vander(cgl_points(N), N + 1, increasing=True)
    for i in range(N + 1):
        vals = V @ lagrange_monomial_coeffs(i, N)
        np.testing.assert_allclose(vals, np.eye(N + 1)[i], rtol=0, atol=1e-12)


def test_lagrange_monomial_guards():
    with pytest.raises(ValueError):
        lagrange_monomial_coeffs(0, 13)
    with pytest.raises(ValueError):
        lagrange_monomial_coeffs(3, 2)


@pytest.mark.parametrize("i", [1.5, 2.0])
def test_lagrange_monomial_rejects_non_integer_index(i):
    with pytest.raises(TypeError):
        lagrange_monomial_coeffs(i, 4)


# ---------------------------------------------------------------------------
# dense Green reference


def test_dense_reference_known_entries():
    G = green_matrix_dense_oracle(3).entries
    assert abs(G[1, 1] + 0.25) < 1e-15
    np.testing.assert_array_equal(G[0], np.zeros(4))
    np.testing.assert_array_equal(G[3], np.zeros(4))


@pytest.mark.parametrize("N", [1, 2, 5, 10])
def test_dense_reference_nearly_centrosymmetric(N):
    # integration order breaks bitwise symmetry but not the identity itself
    G = green_matrix_dense_oracle(N).entries
    assert np.max(np.abs(G - G[::-1, ::-1])) < 1e-13


def test_dense_reference_guards():
    with pytest.raises(ValueError):
        green_matrix_dense_oracle(11)
    with pytest.raises(ValueError):
        green_matrix_dense_oracle(0)


# ---------------------------------------------------------------------------
# naive transform


def test_naive_dct_constant():
    np.testing.assert_allclose(dct1_naive([1.0, 1.0, 1.0]), [2.0, 0.0, 0.0], rtol=0, atol=2e-16)


def test_naive_dct_matches_fast_path():
    rng = np.random.default_rng(11)
    v = rng.standard_normal(129)
    assert np.max(np.abs(dct1_naive(v) - dct1(v))) < 1e-13


def test_naive_dct_guards():
    with pytest.raises(ValueError):
        dct1_naive([1.0])
