"""The slow reference implementations used to cross-check the fast paths."""

import numpy as np
import pytest

from chebgreen import cgl_points
from chebgreen.core import dct1
from chebgreen.oracle import green_matrix_dense_oracle
from references import barycentric_weights_general, dct1_naive


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
# dense Green reference


def test_dense_reference_known_entries():
    G = green_matrix_dense_oracle(3).entries
    assert abs(G[1, 1] + 0.25) < 1e-15
    np.testing.assert_array_equal(G[0], np.zeros(4))
    np.testing.assert_array_equal(G[3], np.zeros(4))


@pytest.mark.parametrize("N", list(range(1, 12)) + [16, 33, 64, 128, 256, 512])
def test_dense_reference_solves_monomial_problems(N):
    # G maps the node values of x^m, m <= N, to those of the u with u'' = x^m
    # and u(+-1) = 0: u = (x^(m+2) - x)/((m+1)(m+2)) for odd m, and with 1 in
    # place of x for even m; a basis other than the reference's own T_m.
    # Measured at most 2.2e-16 up to N = 512
    G = green_matrix_dense_oracle(N).entries
    x = cgl_points(N)
    for m in range(N + 1):
        u = (x ** (m + 2) - (x if m % 2 else 1.0)) / ((m + 1) * (m + 2))
        assert np.max(np.abs(G @ x**m - u)) < 2e-15, m


@pytest.mark.parametrize("N", [1, 2, 5, 10])
def test_dense_reference_nearly_centrosymmetric(N):
    # rounding breaks bitwise symmetry but not the identity itself
    G = green_matrix_dense_oracle(N).entries
    assert np.max(np.abs(G - G[::-1, ::-1])) < 1e-13


def test_dense_reference_guards():
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
