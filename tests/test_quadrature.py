"""Quadrature weights, the consistent inner product, and verify's symmetry
check in it."""

import numpy as np
import pytest

from chebgreen import (
    cc_weights,
    cgl_points,
    consistent_gram_matrix,
    diff2_matrix,
    reinterp_matrix,
)
from chebgreen.cli import _dev_symmetry


def test_weights_small_closed_forms():
    np.testing.assert_allclose(cc_weights(2), [1 / 3, 4 / 3, 1 / 3], rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        cc_weights(4), [1 / 15, 8 / 15, 4 / 5, 8 / 15, 1 / 15], rtol=0, atol=1e-15
    )
    # two-point rule degenerates to the trapezoid
    np.testing.assert_allclose(cc_weights(1), [1.0, 1.0], rtol=0, atol=1e-15)


@pytest.mark.parametrize("M", list(range(1, 65)))
def test_weights_positive_and_normalized(M):
    w = cc_weights(M)
    assert abs(w.sum() - 2.0) < 1e-13
    assert w.min() > 0.0
    np.testing.assert_array_equal(w, w[::-1])


@pytest.mark.parametrize("M", [4, 9, 12])
def test_weights_integrate_polynomials_exactly(M):
    # the M+1 point rule is exact through degree M
    x = cgl_points(M)
    w = cc_weights(M)
    for k in range(M + 1):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(w @ x**k - exact) < 1e-14


def test_weights_squared_chebyshev_integral():
    # integral of T_6^2 over [-1, 1] is 1 - 1/143
    x = cgl_points(12)
    w = cc_weights(12)
    t6 = np.cos(6.0 * np.arccos(np.clip(x, -1.0, 1.0)))
    assert abs(w @ t6**2 - 142.0 / 143.0) < 1e-14


def test_weights_reject_degree_zero():
    with pytest.raises(ValueError):
        cc_weights(0)


# ---------------------------------------------------------------------------
# Gram matrix


# construction does not factor S, so positive definiteness is checked here,
# up to the degrees `verify --check symmetry` runs at
@pytest.mark.parametrize("N", [1, 2, 5, 12, 64, 256, 1024])
def test_gram_matrix_is_symmetric_positive_definite(N):
    S = consistent_gram_matrix(N)
    assert S.shape == (N + 1, N + 1)
    np.testing.assert_array_equal(S, S.T)
    np.linalg.cholesky(S)  # raises LinAlgError unless positive definite
    assert np.all(np.linalg.eigvalsh(S) > 0.0)


def _gram_full(N):
    """R^T W R over every row of the 2N-grid reinterpolation, unit rows included."""
    R = reinterp_matrix(N, 2 * N)
    return R.T @ (cc_weights(2 * N)[:, None] * R)


@pytest.mark.parametrize("N", list(range(1, 17)) + [64, 257, 1024])
def test_gram_matrix_from_odd_rows_matches_full_product(N):
    # the even rows of R are exact unit rows, so S is diag(W_even) plus a
    # rank-N update over the odd rows, which runs as a symmetric update
    S = consistent_gram_matrix(N)
    ref = _gram_full(N)
    np.testing.assert_array_equal(S, S.T)
    assert np.abs(S - ref).max() <= 1e-14 * np.abs(ref).max()


def test_inner_product_monomial_values():
    S = consistent_gram_matrix(4)
    x = cgl_points(4)
    x2 = x**2
    assert abs(x2 @ S @ x2 - 2.0 / 5.0) < 1e-15
    assert abs(x2 @ S @ x) < 1e-15


@pytest.mark.parametrize("N", [1, 3, 8])
def test_inner_product_exact_on_resolvable_monomials(N):
    # degree a + b <= 2N is integrated exactly by the doubled-grid rule
    S = consistent_gram_matrix(N)
    x = cgl_points(N)
    for a in range(N + 1):
        for b in range(N + 1):
            got = x**b @ S @ x**a
            exact = 2.0 / (a + b + 1) if (a + b) % 2 == 0 else 0.0
            assert abs(got - exact) < 1e-13


def test_inner_product_is_symmetric_in_arguments():
    S = consistent_gram_matrix(6)
    rng = np.random.default_rng(8)
    p = rng.standard_normal(7)
    q = rng.standard_normal(7)
    assert q @ S @ p == pytest.approx(p @ S @ q, abs=1e-15)


# ---------------------------------------------------------------------------
# symmetry of the second derivative in this product


@pytest.mark.parametrize("N", [64, 257, 512])
def test_symmetry_deviation_matches_direct_product(N):
    # the check chains its products in another order over the odd-row Gram
    # matrix; against B^T (S (D2 B)) with the full-product S the deviation
    # moves by round-off (1 % at N = 257)
    x = cgl_points(N)
    theta = np.arange(N + 1) * (np.pi / N)
    B = (1.0 - x * x)[:, None] * np.cos(np.outer(theta, np.arange(N - 1)))
    S = _gram_full(N)
    M = B.T @ (0.5 * (S + S.T) @ (diff2_matrix(N) @ B))
    norms = np.linalg.norm(B, axis=0)
    ref = float((np.abs(M - M.T) / np.outer(norms, norms)).max())
    assert abs(_dev_symmetry(N) - ref) <= 0.1 * ref
