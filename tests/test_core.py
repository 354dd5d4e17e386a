"""Grids, barycentric weights, the DCT-I kernel, and the transforms."""

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from chebgreen import (
    CoeffVector,
    NodeVector,
    cgl_points,
    coeffs_to_nodes,
    dct1,
    node_to_coeffs,
)
from chebgreen.core import _cgl_weight_signs, _coeff_to_node_values, _node_to_coeff_values
from chebgreen.oracle import barycentric_weights_general, dct1_naive


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# points


def test_cgl_points_small_grids():
    np.testing.assert_array_equal(cgl_points(2), [1.0, 0.0, -1.0])
    np.testing.assert_allclose(cgl_points(3), [1.0, 0.5, -0.5, -1.0], rtol=0, atol=2e-16)
    r = np.sqrt(2.0) / 2.0
    np.testing.assert_allclose(cgl_points(4), [1.0, r, 0.0, -r, -1.0], rtol=0, atol=2e-16)


@pytest.mark.parametrize("N", [1, 2, 3, 7, 12, 33, 100, 257])
def test_cgl_points_structure(N):
    x = cgl_points(N)
    assert x.shape == (N + 1,)
    assert x[0] == 1.0 and x[N] == -1.0
    # symmetry is enforced bitwise, not just to rounding
    np.testing.assert_array_equal(x, -x[::-1])
    assert np.all(np.diff(x) < 0)
    # the mirrored half sits a couple of ulps from a direct cosine call
    np.testing.assert_allclose(x, np.cos(np.arange(N + 1) * np.pi / N), rtol=0, atol=1e-15)


def test_cgl_points_interlace_bitwise():
    # the even entries of the doubled grid are exactly the coarse grid
    for N in (3, 5, 8, 40):
        np.testing.assert_array_equal(cgl_points(2 * N)[::2], cgl_points(N))


def test_cgl_points_rejects_degree_zero():
    with pytest.raises(ValueError):
        cgl_points(0)


# ---------------------------------------------------------------------------
# barycentric weights


def test_barycentric_weights_closed_form():
    np.testing.assert_array_equal(_cgl_weight_signs(4), [0.5, -1.0, 1.0, -1.0, 0.5])
    np.testing.assert_array_equal(_cgl_weight_signs(2), [0.5, -1.0, 0.5])
    np.testing.assert_array_equal(_cgl_weight_signs(1), [0.5, -0.5])


@pytest.mark.parametrize("N", [3, 6, 11, 64])
def test_barycentric_weights_pattern(N):
    expect = (-1.0) ** np.arange(N + 1)
    expect[0] *= 0.5
    expect[-1] *= 0.5
    np.testing.assert_array_equal(_cgl_weight_signs(N), expect)


def test_barycentric_weights_match_the_defining_product():
    # the defining product carries the common scale 2^(N-1)/N, which cancels
    # wherever the weights enter as ratios; it takes at most 40 points
    for N in range(1, 40):
        ref = barycentric_weights_general(cgl_points(N)) * (N / 2.0 ** (N - 1))
        np.testing.assert_allclose(_cgl_weight_signs(N), ref, rtol=1e-13, atol=0, err_msg=f"N={N}")


def test_weights_and_grid_are_finite_up_to_degree_1024():
    assert np.isfinite(_cgl_weight_signs(1024)).all() and np.isfinite(cgl_points(1024)).all()


# ---------------------------------------------------------------------------
# DCT-I


def test_dct1_constant_vector():
    np.testing.assert_allclose(dct1(np.ones(3)), [2.0, 0.0, 0.0], rtol=0, atol=2e-16)


def test_dct1_self_inverse():
    rng = np.random.default_rng(42)
    v = rng.standard_normal(17)
    np.testing.assert_allclose(dct1(dct1(v)), v, rtol=0, atol=1e-14)


def test_dct1_fast_matches_naive():
    rng = np.random.default_rng(43)
    v = rng.standard_normal(129)
    assert np.max(np.abs(dct1(v) - dct1_naive(v))) < 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_dct1_tiny_sizes_roundtrip(n):
    # the smallest sizes the FFT path serves: extensions of length 2 and 4
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n)
    np.testing.assert_allclose(dct1(dct1(v)), v, rtol=0, atol=1e-15)
    np.testing.assert_allclose(dct1(v), dct1_naive(v), rtol=0, atol=1e-15)


def test_dct1_rejects_short_and_multidim():
    with pytest.raises(ValueError):
        dct1(np.array([1.0]))
    with pytest.raises(ValueError):
        dct1(np.ones((2, 1)))


# ---------------------------------------------------------------------------
# the kernel on rows of a 2-d array


ROW_LENGTHS = [2, 3, 4, 5, 8, 9, 33, 64, 129, 2049]


@pytest.mark.parametrize("n", ROW_LENGTHS)
@pytest.mark.parametrize(
    "kernel", [dct1, _node_to_coeff_values, _coeff_to_node_values],
    ids=["dct1", "node_to_coeff", "coeff_to_node"],
)
def test_kernel_rows_match_one_dimensional_calls_bitwise(kernel, n):
    rng = np.random.default_rng(n)
    V = rng.standard_normal((7, n))
    V[3] = 0.0
    V[4, n // 2] = 1.0  # a unit row, as the Green assembly feeds in
    assert _same_bits(kernel(V), np.stack([kernel(v) for v in V]))


def test_dct1_rows_need_the_fft_length():
    # rows take the same length rule as a 1-d call; more than two axes are refused
    with pytest.raises(ValueError):
        dct1(np.ones((2, 2, 4)))


# ---------------------------------------------------------------------------
# node <-> coefficient transforms


def test_node_to_coeffs_constant():
    got = node_to_coeffs(NodeVector([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(got.values, [1.0, 0.0, 0.0], rtol=0, atol=2e-16)


def test_node_to_coeffs_pure_t2():
    # T_2 sampled at {1, 0, -1} is [1, -1, 1]
    got = node_to_coeffs(NodeVector([1.0, -1.0, 1.0]))
    np.testing.assert_allclose(got.values, [0.0, 0.0, 1.0], rtol=0, atol=2e-16)


def test_coeffs_to_nodes_pure_t1():
    got = coeffs_to_nodes(CoeffVector([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(got.values, [1.0, 0.0, -1.0], rtol=0, atol=2e-16)


def test_transform_round_trip():
    rng = np.random.default_rng(7)
    u = rng.standard_normal(34)  # N = 33
    back = coeffs_to_nodes(node_to_coeffs(NodeVector(u)))
    assert np.max(np.abs(back.values - u)) < 1e-13


@pytest.mark.parametrize("N", [1, 2, 5, 16])
def test_node_to_coeffs_matches_chebyshev_fit(N):
    # independent reference: numpy's Chebyshev interpolation
    rng = np.random.default_rng(N)
    u = rng.standard_normal(N + 1)
    x = cgl_points(N)
    c = npcheb.chebfit(x, u, N)
    np.testing.assert_allclose(node_to_coeffs(NodeVector(u)).values, c, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k,M", [(0, 4), (3, 4), (4, 4), (2, 9)])
def test_eval_chebyshev_at_cgl(k, M):
    # T_k at the degree-M grid is the image of the k-th unit coefficient vector
    e_k = np.zeros(M + 1)
    e_k[k] = 1.0
    expect = npcheb.chebval(cgl_points(M), e_k)
    got = coeffs_to_nodes(CoeffVector(e_k)).values
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# containers


def test_node_vector_infers_and_checks_degree():
    v = NodeVector([1.0, 2.0, 3.0])
    assert v.grid_degree == 2
    with pytest.raises(ValueError):
        NodeVector([1.0, 2.0, 3.0], grid_degree=5)
    with pytest.raises(ValueError):
        NodeVector([1.0])  # a single value has no degree >= 1 grid


def test_coeff_vector_any_positive_length():
    assert len(CoeffVector([4.0])) == 1
    assert len(CoeffVector(np.zeros(7))) == 7
    with pytest.raises(ValueError):
        CoeffVector(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        CoeffVector(np.array([]))


def test_vectors_are_read_only():
    v = NodeVector([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        v.values[0] = 9.0
    c = CoeffVector([1.0, 2.0])
    with pytest.raises(ValueError):
        c.values[0] = 9.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("vector", [NodeVector, CoeffVector])
def test_vectors_reject_non_finite_values(vector, bad):
    values = np.ones(5)
    values[2] = bad
    with pytest.raises(ValueError, match="finite"):
        vector(values)
