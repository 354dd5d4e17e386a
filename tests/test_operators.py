"""Differentiation, resampling, boundary-embedded matrices, inverse checks."""

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from chebgreen import (
    NodeVector,
    OperatorMatrix,
    cheb_grid,
    cgl_points,
    diff2_bc_matrix,
    diff2_matrix,
    diff_matrix,
    extension_matrix,
    green_bc_matrix,
    green_matrix,
    projection_matrix,
    reinterp_matrix,
    solve_stripped,
    strip,
    verify_left_inverse,
    verify_right_inverse,
)


def test_diff_matrix_degree_one():
    np.testing.assert_array_equal(diff_matrix(1).entries, [[0.5, -0.5], [0.5, -0.5]])


@pytest.mark.parametrize("N", [2, 5, 16, 64])
def test_diff_matrix_kills_constants(N):
    # diagonal is the negated row sum, so row sums vanish up to rounding
    D = diff_matrix(N).entries
    assert np.max(np.abs(D @ np.ones(N + 1))) < 1e-12


@pytest.mark.parametrize("deg", [1, 2, 3, 6])
def test_diff_matrix_exact_on_polynomials(deg):
    N = 8
    x = cgl_points(N)
    c = np.zeros(deg + 1)
    c[deg] = 1.0
    D = diff_matrix(N).entries
    np.testing.assert_allclose(D @ npcheb.chebval(x, c),
                               npcheb.chebval(x, npcheb.chebder(c)), rtol=0, atol=1e-11)


def test_diff2_matrix_small_case():
    D2 = diff2_matrix(2).entries
    np.testing.assert_allclose(D2[1], [1.0, -2.0, 1.0], rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        diff2_matrix(1)


def test_strip_removes_boundary_rows_and_columns():
    S = strip(diff2_matrix(2))
    np.testing.assert_allclose(S.entries, [[-2.0]], rtol=0, atol=1e-14)
    D2 = diff2_matrix(5)
    np.testing.assert_array_equal(strip(D2).entries, D2.entries[1:-1, 1:-1])
    with pytest.raises(ValueError):
        strip(OperatorMatrix("D2", np.zeros((2, 2))))


def test_solve_stripped_constant_rhs():
    y = solve_stripped(NodeVector(np.ones(3)))
    np.testing.assert_allclose(y.values, [0.0, -0.5, 0.0], rtol=0, atol=1e-15)
    assert y.values[0] == 0.0 and y.values[-1] == 0.0


def test_solve_stripped_constant_rhs_larger_grid():
    x = cgl_points(8)
    got = solve_stripped(NodeVector(np.ones(9))).values
    np.testing.assert_allclose(got, (x**2 - 1.0) / 2.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("N", [2, 8, 32, 33])
def test_solve_stripped_matches_green_multiply_on_resolvable_data(N):
    # the two paths interpolate the forcing on different node sets, so they
    # coincide only when it is already a polynomial of degree <= N-2
    rng = np.random.default_rng(N)
    f = npcheb.chebval(cgl_points(N), rng.standard_normal(N - 1))
    got = solve_stripped(NodeVector(f)).values
    ref = green_matrix(N).entries @ f
    assert np.max(np.abs(got - ref)) < 1e-10


@pytest.mark.parametrize("N", [8, 21])
def test_solve_stripped_collocation_residual(N):
    # defining property: the second-derivative rows hit the forcing exactly
    rng = np.random.default_rng(N + 70)
    f = rng.standard_normal(N + 1)
    y = solve_stripped(NodeVector(f)).values
    res = diff2_matrix(N).entries @ y - f
    assert np.max(np.abs(res[1:-1])) < 1e-9


# ---------------------------------------------------------------------------
# resampling


def test_reinterp_same_grid_is_identity():
    np.testing.assert_array_equal(reinterp_matrix(4, 4).entries, np.eye(5))


def test_reinterp_doubling_hits_shared_nodes_exactly():
    R = reinterp_matrix(5, 10).entries
    eye = np.eye(6)
    for m in range(6):
        np.testing.assert_array_equal(R[2 * m], eye[m])


@pytest.mark.parametrize("N_from,N_to", [(5, 9), (5, 11), (7, 4), (1, 6)])
def test_reinterp_reproduces_polynomial_values(N_from, N_to):
    # resampling a degree <= min(N_from, N_to) polynomial is exact
    rng = np.random.default_rng(N_from * 100 + N_to)
    c = rng.standard_normal(min(N_from, N_to) + 1)
    xs = cgl_points(N_from)
    xt = cgl_points(N_to)
    got = reinterp_matrix(N_from, N_to).entries @ npcheb.chebval(xs, c)
    np.testing.assert_allclose(got, npcheb.chebval(xt, c), rtol=0, atol=1e-12)


def test_reinterp_rejects_degree_zero():
    with pytest.raises(ValueError):
        reinterp_matrix(0, 4)


# ---------------------------------------------------------------------------
# projection and extension


def test_projection_picks_interior():
    np.testing.assert_array_equal(projection_matrix(2).entries, [[0.0, 1.0, 0.0]])
    P = projection_matrix(6).entries
    assert P.shape == (5, 7)
    np.testing.assert_array_equal(P, np.eye(7)[1:-1])


def test_extension_small_cases():
    np.testing.assert_array_equal(extension_matrix(2).entries, [[1.0], [1.0], [1.0]])
    # degree 3: interior nodes are +-1/2, and u = x extends to u = x
    got = extension_matrix(3).entries @ np.array([0.5, -0.5])
    np.testing.assert_allclose(got, [1.0, 0.5, -0.5, -1.0], rtol=0, atol=1e-15)


@pytest.mark.parametrize("N", [2, 3, 5, 12])
def test_projection_of_extension_is_identity(N):
    P = projection_matrix(N).entries
    E = extension_matrix(N).entries
    assert np.max(np.abs(P @ E - np.eye(N - 1))) < 1e-12


@pytest.mark.parametrize("N", [3, 6, 11])
def test_extension_extrapolates_low_degree_polynomials(N):
    # for deg <= N-2 the interior interpolant recovers the boundary values
    rng = np.random.default_rng(N)
    c = rng.standard_normal(N - 1)
    x = cgl_points(N)
    vals = npcheb.chebval(x, c)
    got = extension_matrix(N).entries @ vals[1:-1]
    np.testing.assert_allclose(got, vals, rtol=0, atol=1e-11)


def _extension_product_formula(N):
    # boundary rows from the generic barycentric product formula
    x = cgl_points(N)
    t = x[1:-1]
    d = t[:, None] - t[None, :]
    np.fill_diagonal(d, 1.0)
    lam = 1.0 / d.prod(axis=1)
    E = np.zeros((N + 1, N - 1))
    E[1:-1] = np.eye(N - 1)
    for row, z in ((0, x[0]), (N, x[-1])):
        w = lam / (z - t)
        E[row] = w / w.sum()
    return E


@pytest.mark.parametrize("N", range(2, 31))
def test_extension_matches_product_formula(N):
    E = extension_matrix(N).entries
    assert np.max(np.abs(E - _extension_product_formula(N))) <= 1e-12


@pytest.mark.parametrize("N", [864, 1100, 2048])
def test_extension_stays_finite_at_large_degree(N):
    # the product-formula weights underflowed here
    E = extension_matrix(N).entries
    assert np.isfinite(E).all()
    np.testing.assert_allclose(E[[0, N]].sum(axis=1), 1.0, rtol=0, atol=1e-12)
    x = cgl_points(N)
    vals = 1.0 + x - 2.0 * x**3
    np.testing.assert_allclose(E @ vals[1:-1], vals, rtol=0, atol=1e-9)


def test_projection_extension_degree_bounds():
    with pytest.raises(ValueError):
        projection_matrix(1)
    with pytest.raises(ValueError):
        extension_matrix(1)


# ---------------------------------------------------------------------------
# boundary-embedded pair


@pytest.mark.parametrize("N", [2, 3, 8, 21])
def test_bc_matrices_shapes_and_boundary_rows(N):
    A = diff2_bc_matrix(N).entries
    B = green_bc_matrix(N).entries
    assert A.shape == B.shape == (N + 1, N + 1)
    eye = np.eye(N + 1)
    np.testing.assert_array_equal(A[0], eye[0])
    np.testing.assert_array_equal(A[N], eye[N])
    # first/last columns of the embedded solver carry the boundary data
    x = cgl_points(N)
    np.testing.assert_allclose(B[:, 0], 0.5 * (1.0 + x), rtol=0, atol=1e-15)
    np.testing.assert_allclose(B[:, N], 0.5 * (1.0 - x), rtol=0, atol=1e-15)


@pytest.mark.parametrize("N", [2, 4, 9, 24])
def test_bc_pair_inverts_both_ways(N):
    A = diff2_bc_matrix(N).entries
    B = green_bc_matrix(N).entries
    eye = np.eye(N + 1)
    assert np.max(np.abs(A @ B - eye)) < 1e-8
    assert np.max(np.abs(B @ A - eye)) < 1e-8


def test_bc_solver_honors_inhomogeneous_boundary_data():
    # rows of B applied to [alpha, interior f, beta] solve u'' = f, u(+-1) given
    N = 16
    x = cgl_points(N)
    rhs = np.empty(N + 1)
    alpha, beta = 2.0, -1.0
    rhs[0] = alpha
    rhs[1:-1] = np.exp(x[1:-1])
    rhs[N] = beta
    got = green_bc_matrix(N).entries @ rhs
    lin = (alpha - beta) / 2.0 * x + (alpha + beta) / 2.0
    exact = np.exp(x) - np.sinh(1.0) * x - np.cosh(1.0) + lin
    np.testing.assert_allclose(got, exact, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# inverse diagnostics


@pytest.mark.parametrize("N", [3, 8, 32])
def test_left_inverse_deviation_is_small(N):
    assert verify_left_inverse(N) < 1e-8


@pytest.mark.parametrize("N", [4, 8, 32])
def test_right_inverse_deviation_is_small(N):
    assert verify_right_inverse(N) < 1e-8


def test_inverse_checks_reject_tiny_grids():
    with pytest.raises(ValueError):
        verify_left_inverse(2)
    with pytest.raises(ValueError):
        verify_right_inverse(3)


def test_operator_matrix_requires_2d():
    with pytest.raises(ValueError):
        OperatorMatrix("D", np.zeros(3))
    M = OperatorMatrix("R", np.zeros((2, 5)))
    assert M.rows == 2 and M.cols == 5
