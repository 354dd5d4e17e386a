"""The kernel, the assembled Green matrix, and the three solve paths."""

import numpy as np
import pytest

from chebgreen import (
    METHODS,
    GreenMatrix,
    NodeVector,
    apply_green_matrix_free,
    cheb_grid,
    green_function_eval,
    green_matrix,
    solve_bvp,
)
from chebgreen.oracle import green_matrix_dense_oracle


def test_kernel_pointwise_values():
    assert green_function_eval(0.0, 0.0) == -0.5
    assert green_function_eval(1.0, 0.3) == 0.0
    assert green_function_eval(-1.0, 0.3) == 0.0
    # below the diagonal: x >= xi uses (x-1)(xi+1)/2
    assert green_function_eval(0.5, -0.5) == 0.5 * (0.5 - 1.0) * (-0.5 + 1.0)


def test_kernel_is_symmetric_in_its_arguments():
    rng = np.random.default_rng(3)
    for x, xi in rng.uniform(-1.0, 1.0, size=(20, 2)):
        assert green_function_eval(x, xi) == green_function_eval(xi, x)


def test_kernel_rejects_points_outside_domain():
    with pytest.raises(ValueError):
        green_function_eval(1.5, 0.0)
    with pytest.raises(ValueError):
        green_function_eval(0.0, -2.0)


# ---------------------------------------------------------------------------
# assembled matrix


def test_green_matrix_degree_three_entries():
    G = green_matrix(3).entries
    assert G[1, 1] == -0.25
    assert G[2, 2] == -0.25
    row = [5.0 / 960.0, -0.25, -35.0 / 240.0, 0.015625]
    np.testing.assert_allclose(G[1], row, rtol=0, atol=1e-15)


@pytest.mark.parametrize("N", list(range(1, 11)))
def test_green_matrix_matches_dense_reference(N):
    G = green_matrix(N).entries
    R = green_matrix_dense_oracle(N).entries
    assert np.max(np.abs(G - R)) < 1e-12


@pytest.mark.parametrize("N", [1, 2, 3, 4, 9, 24, 25])
def test_green_matrix_structure(N):
    G = green_matrix(N).entries
    assert G.shape == (N + 1, N + 1)
    np.testing.assert_array_equal(G[0], np.zeros(N + 1))
    np.testing.assert_array_equal(G[N], np.zeros(N + 1))
    # centrosymmetry holds bitwise by construction
    np.testing.assert_array_equal(G, G[::-1, ::-1])


@pytest.mark.parametrize("N", list(range(2, 11)))
def test_green_matrix_interior_diagonal_negative(N):
    # G(x, x) = (x^2 - 1)/2 < 0 away from the ends
    d = np.diag(green_matrix(N).entries)
    assert np.all(d[1:-1] < 0.0)


def test_green_matrix_rejects_degree_zero():
    with pytest.raises(ValueError):
        green_matrix(0)


def test_green_matrix_container_checks_shape():
    with pytest.raises(ValueError):
        GreenMatrix(2, np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# matrix-free apply


def test_apply_matches_constant_rhs():
    y = apply_green_matrix_free(NodeVector(np.ones(4)))
    np.testing.assert_allclose(y.values, [0.0, -0.375, -0.375, 0.0], rtol=0, atol=1e-15)
    assert y.values[0] == 0.0 and y.values[-1] == 0.0


@pytest.mark.parametrize("N", [2, 3, 4, 5, 17, 64, 150])
def test_apply_matches_dense_multiply(N):
    rng = np.random.default_rng(N)
    f = rng.standard_normal(N + 1)
    dense = green_matrix(N).entries @ f
    free = apply_green_matrix_free(NodeVector(f)).values
    assert np.max(np.abs(dense - free)) < 1e-12 * np.max(np.abs(f))


def test_apply_needs_degree_two():
    with pytest.raises(ValueError):
        apply_green_matrix_free(NodeVector([1.0, 1.0]))


# ---------------------------------------------------------------------------
# solver front end


@pytest.mark.parametrize("method", METHODS)
def test_solve_methods_agree_on_smooth_rhs(method):
    N = 12
    x = cheb_grid(N).points
    f = NodeVector(np.exp(x))
    y = solve_bvp(f, method).values
    ref = green_matrix(N).entries @ np.exp(x)
    np.testing.assert_allclose(y, ref, rtol=0, atol=1e-13)


def test_solve_boundary_values_are_zero():
    for method in METHODS:
        y = solve_bvp(NodeVector(np.ones(9)), method).values
        assert y[0] == 0.0 and y[-1] == 0.0


def test_solve_rejects_unknown_method():
    with pytest.raises(ValueError, match="dense-green"):
        solve_bvp(NodeVector(np.ones(3)), "cholesky")


@pytest.mark.parametrize("method", METHODS)
def test_solve_rejects_bare_array(method):
    with pytest.raises(TypeError, match="NodeVector"):
        solve_bvp(np.ones(9), method)
