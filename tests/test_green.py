"""The kernel, the assembled Green matrix, and the three solve paths."""

import numpy as np
import pytest

from chebgreen import (
    METHODS,
    GreenMatrix,
    NodeVector,
    apply_green_matrix_free,
    green_function_eval,
    green_matrix,
    lagrange_integrals,
    node_poly_primitive,
    solve_bvp,
)
from chebgreen.calculus import _antiderivative_raw, _lagrange_primitive_values
from chebgreen.core import _coeff_to_node_values, _node_to_coeff_values, cgl_points
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


def _green_matrix_per_column(N):
    """Column-by-column assembly from the 1-d Lagrange primitive, N >= 3."""
    x = cgl_points(N)
    xplus = 0.5 * (x + 1.0)
    xminus = 0.5 * (x - 1.0)
    base = np.zeros(2 * N + 1)
    base[N - 2] = 1.0 / (N - 2)
    base[N] = -2.0 / N
    base[N + 2] = 1.0 / (N + 2)
    q = _coeff_to_node_values(base)[::2]
    q_up = q - q[-1]
    q_down = q[0] - q
    G = np.empty((N + 1, N + 1))
    half = N // 2
    for i in range(half + 1):
        pref = (1.0 if i % 2 == 0 else -1.0) * (0.5 if i == 0 else 1.0) / (4.0 * N)
        lag = _lagrange_primitive_values(i, N)
        l_up = lag - lag[-1]
        l_down = lag[0] - lag
        col = xplus * (pref * q_down + (x[i] - 1.0) * l_down)
        col += xminus * (pref * q_up + (x[i] + 1.0) * l_up)
        col[0] = 0.0
        col[-1] = 0.0
        G[:, i] = col
    if N % 2 == 0:
        G[:, half] = 0.5 * (G[:, half] + G[::-1, half])
    for i in range(half + 1, N + 1):
        G[:, i] = G[::-1, N - i]
    return G


# N = 63 and 64 put N/2 + 1 half-columns at and one past the assembly block.
# The reference builds the sine tables afresh in every call; green_matrix
# builds them once and passes them to each block.
@pytest.mark.parametrize("N", list(range(3, 13)) + [16, 31, 32, 33, 62, 63, 64, 65, 66,
                                                     256, 257, 1024, 2048])
def test_green_matrix_equals_per_column_assembly_bitwise(N):
    G = green_matrix(N).entries
    ref = _green_matrix_per_column(N)
    assert G.shape == ref.shape and G.tobytes() == ref.tobytes()


@pytest.mark.parametrize("N", [3, 8, 33, 64, 65])
def test_green_matrix_columns_match_public_primitives(N):
    G = green_matrix(N).entries
    x = cgl_points(N)
    tol = 1e-14 * np.max(np.abs(G))
    for i in range(N + 1):
        l_up, l_down = lagrange_integrals(i, N)
        p_up, p_down = node_poly_primitive(i, N)
        col = 0.5 * (x + 1.0) * (p_down.values + (x[i] - 1.0) * l_down.values)
        col += 0.5 * (x - 1.0) * (p_up.values + (x[i] + 1.0) * l_up.values)
        assert np.max(np.abs(G[:, i] - col)) <= tol, i


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


def _fine_grid_apply(f):
    """Reference for apply_green_matrix_free without the fold: integrate
    twice on 2N + 2 coefficients, evaluate on the degree-2N grid and keep its
    even-index nodes, the degree-N grid."""
    N = f.size - 1
    c = np.concatenate([_node_to_coeff_values(f), np.zeros(N + 1)])
    prim2 = _antiderivative_raw(_antiderivative_raw(c))[: 2 * N + 1]
    h = _coeff_to_node_values(prim2)[::2]
    x = cgl_points(N)
    y = h - h[0] * (0.5 * (1.0 + x)) - h[-1] * (0.5 * (1.0 - x))
    y[0] = 0.0
    y[-1] = 0.0
    return y


@pytest.mark.parametrize("N", list(range(2, 13)) + [63, 64, 65, 256, 1024, 2048])
def test_apply_fold_matches_fine_grid_reference(N):
    # random forcings cancel in G @ f, so the bound scales with max|f| (the
    # Green matrix has entries of size at most 1/2); measured worst case
    # 0.8 ulps of max|f| over five forcings per degree
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(N)
    for f in (rng.standard_normal(N + 1) for _ in range(5)):
        got = apply_green_matrix_free(NodeVector(f)).values
        assert np.abs(got - _fine_grid_apply(f)).max() <= 8 * eps * np.abs(f).max()


# 100 003 is prime: the length-2N transforms take pocketfft's slow path
@pytest.mark.parametrize("N", [100_000, 100_003])
@pytest.mark.parametrize("kind", ["exp", "sin"])
def test_apply_large_degree_closed_form(N, kind):
    x = cgl_points(N)
    if kind == "exp":
        a = 2.5
        f = np.exp(a * x)
        u = (f - (np.cosh(a) + x * np.sinh(a))) / a**2
    else:
        b, c = 7.0, 0.3
        f = np.sin(b * x + c)
        line = 0.5 * (np.sin(b + c) * (1.0 + x) + np.sin(c - b) * (1.0 - x))
        u = (line - f) / b**2
    y = apply_green_matrix_free(NodeVector(f)).values
    assert np.abs(y - u).max() <= 1e-13 * np.abs(f).max()


def test_apply_needs_degree_two():
    with pytest.raises(ValueError):
        apply_green_matrix_free(NodeVector([1.0, 1.0]))


# ---------------------------------------------------------------------------
# solver front end


@pytest.mark.parametrize("method", METHODS)
def test_solve_methods_agree_on_smooth_rhs(method):
    N = 12
    x = cgl_points(N)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("method", METHODS)
def test_solve_rejects_non_finite_forcing(method, bad):
    f = np.exp(cgl_points(16))
    f[3] = bad
    with pytest.raises(ValueError, match="finite"):
        solve_bvp(NodeVector(f), method)
