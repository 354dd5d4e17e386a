"""Differentiation, resampling, boundary-embedded matrices, and the verify
checks that invert them."""

import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from chebgreen import (
    NodeVector,
    cgl_points,
    diff2_bc_matrix,
    diff2_matrix,
    diff_matrix,
    extension_matrix,
    green_bc_matrix,
    green_matrix,
    reinterp_matrix,
    solve_stripped,
)
from chebgreen.cli import _dev_left_inverse, _dev_right_inverse
from chebgreen.core import _cgl_weight_signs
from chebgreen.operators import _diff2_rows


def test_diff_matrix_degree_one():
    np.testing.assert_array_equal(diff_matrix(1), [[0.5, -0.5], [0.5, -0.5]])


@pytest.mark.parametrize("N", [2, 5, 16, 64])
def test_diff_matrix_kills_constants(N):
    # diagonal is the negated row sum, so row sums vanish up to rounding
    D = diff_matrix(N)
    assert np.max(np.abs(D @ np.ones(N + 1))) < 1e-12


@pytest.mark.parametrize("deg", [1, 2, 3, 6])
def test_diff_matrix_exact_on_polynomials(deg):
    N = 8
    x = cgl_points(N)
    c = np.zeros(deg + 1)
    c[deg] = 1.0
    D = diff_matrix(N)
    np.testing.assert_allclose(D @ npcheb.chebval(x, c),
                               npcheb.chebval(x, npcheb.chebder(c)), rtol=0, atol=1e-11)


def test_diff2_matrix_small_case():
    D2 = diff2_matrix(2)
    np.testing.assert_allclose(D2[1], [1.0, -2.0, 1.0], rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        diff2_matrix(1)


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


@pytest.mark.parametrize("N", [*range(2, 41), 64, 256, 1024])
def test_solve_stripped_matches_green_times_extension(N):
    # in exact arithmetic the stripped solve is G.E on the interior values,
    # E the extension of their degree-(N-2) interpolant to every node.
    # Measured worst gap over these seeds, in N^2 eps max|G f|: 0.68 at
    # N = 2, 0.55 at N = 7, 0.34 at N = 12, at most 0.16 from N = 13 to 40,
    # 0.012-0.020 at N = 1024 depending on the BLAS thread count
    G = green_matrix(N).entries
    E = extension_matrix(N)
    eps = np.finfo(float).eps
    for seed in (0, 1, 7, 2024, 12345):
        for f in np.random.default_rng(seed).standard_normal((8, N + 1)):
            gap = np.max(np.abs(solve_stripped(NodeVector(f)).values - G @ (E @ f[1:-1])))
            bound = N**2 * eps * np.max(np.abs(G @ f))
            assert gap <= bound, (seed, gap / bound)


@pytest.mark.parametrize("N", [8, 21])
def test_solve_stripped_collocation_residual(N):
    # defining property: the second-derivative rows hit the forcing exactly
    rng = np.random.default_rng(N + 70)
    f = rng.standard_normal(N + 1)
    y = solve_stripped(NodeVector(f)).values
    res = diff2_matrix(N) @ y - f
    assert np.max(np.abs(res[1:-1])) < 1e-9


_DIRECT_DEGREES = [*range(2, 13), 63, 64, 65, 256, 1024, 1025]


@pytest.mark.parametrize("N", _DIRECT_DEGREES)
def test_diff2_matrix_matches_square_of_diff_matrix(N):
    # built directly, equal to D @ D in exact arithmetic
    D2 = diff2_matrix(N)
    D = diff_matrix(N)
    assert np.max(np.abs(D2 - D @ D)) <= 1e-11 * np.max(np.abs(D2))


def _diff2_rows_one_shot(N, stop):
    """The second-derivative rows 0..stop-1 built all at once, on two
    full-height arrays: the reciprocal differences and the first derivative."""
    x, lam = cgl_points(N), _cgl_weight_signs(N)
    k = np.arange(stop)
    inv = np.subtract.outer(x[:stop], x)
    inv[k, k] = 1.0
    np.reciprocal(inv, out=inv)
    D = inv * lam
    D /= lam[:stop, None]
    D[k, k] = 0.0
    d = -D.sum(axis=1)
    np.subtract(d[:, None], inv, out=inv)
    inv *= D
    inv *= 2.0
    inv[k, k] = -inv.sum(axis=1)
    return inv


# one panel, one panel plus a row, two full panels, and many panels
@pytest.mark.parametrize("N", [*range(2, 13), 63, 64, 65, 127, 128, 129, 1024, 2048])
def test_diff2_rows_in_panels_equal_one_shot_build_bitwise(N):
    # the full rows and the top N//2 + 1 rows of the stripped solve
    for stop in (N + 1, N // 2 + 1):
        assert _diff2_rows(N, stop).tobytes() == _diff2_rows_one_shot(N, stop).tobytes()


def test_diff2_matrix_peak_memory_stays_near_its_output():
    # the row panels' temporaries are small next to the (N+1)^2 output
    N = 1024
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        diff2_matrix(N)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * 8 * (N + 1) ** 2


@pytest.mark.parametrize("N", _DIRECT_DEGREES)
def test_parity_split_solve_matches_full_stripped_solve(N):
    x = cgl_points(N)
    f = np.exp(x) * np.sin(5.0 * x) + x + 0.5
    ref = np.linalg.solve(diff2_matrix(N)[1:-1, 1:-1], f[1:-1])
    y = solve_stripped(NodeVector(f)).values
    assert y[0] == 0.0 and y[-1] == 0.0
    assert np.max(np.abs(y[1:-1] - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("N", [3, 4, 8, 63, 64, 256, 257])
@pytest.mark.parametrize("shape,sign", [(np.cos, 1.0), (np.sin, -1.0)], ids=["even", "odd"])
def test_solve_stripped_keeps_parity_bitwise(N, shape, sign):
    f = shape(3.0 * cgl_points(N))
    np.testing.assert_array_equal(f[::-1], sign * f)  # the forcing is exactly even / odd
    y = solve_stripped(NodeVector(f)).values
    np.testing.assert_array_equal(y[::-1], sign * y)


@pytest.mark.parametrize("N", [512, 513])
def test_solve_stripped_peak_memory_stays_near_one_matrix(N):
    # the split builds only the top half of the D2 rows; that half and the
    # two parity blocks are the peak, about one (N+1)^2 matrix
    f = NodeVector(np.cos(3.0 * cgl_points(N)))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        solve_stripped(f)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (N + 1) ** 2 * 8


# ---------------------------------------------------------------------------
# resampling


def test_reinterp_same_grid_is_identity():
    np.testing.assert_array_equal(reinterp_matrix(4, 4), np.eye(5))


def test_reinterp_doubling_hits_shared_nodes_exactly():
    R = reinterp_matrix(5, 10)
    eye = np.eye(6)
    for m in range(6):
        np.testing.assert_array_equal(R[2 * m], eye[m])


def _reinterp_three_arrays(N_from, N_to):
    """reinterp_matrix as built with separate difference, weight and result
    arrays; reinterp_matrix does the same arithmetic in one buffer."""
    x = cgl_points(N_from)
    y = cgl_points(N_to)
    lam = _cgl_weight_signs(N_from)
    diff = y[:, None] - x[None, :]
    hit = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        W = lam[None, :] / diff
        R = W / W.sum(axis=1, keepdims=True)
    R[hit.any(axis=1)] = 0.0
    R[hit] = 1.0
    return R


# (64, 128) interlaces the grids, (255, 257) shares only the end and middle nodes
@pytest.mark.parametrize("N_from,N_to", [(4, 8), (64, 128), (17, 40), (40, 17), (255, 257),
                                         (1022, 1024), (1024, 1022)])
def test_reinterp_matrix_equals_three_array_build_bitwise(N_from, N_to):
    R = reinterp_matrix(N_from, N_to)
    assert R.tobytes() == _reinterp_three_arrays(N_from, N_to).tobytes()


@pytest.mark.parametrize("N_from,N_to", [(5, 9), (5, 11), (7, 4), (1, 6)])
def test_reinterp_reproduces_polynomial_values(N_from, N_to):
    # resampling a degree <= min(N_from, N_to) polynomial is exact
    rng = np.random.default_rng(N_from * 100 + N_to)
    c = rng.standard_normal(min(N_from, N_to) + 1)
    xs = cgl_points(N_from)
    xt = cgl_points(N_to)
    got = reinterp_matrix(N_from, N_to) @ npcheb.chebval(xs, c)
    np.testing.assert_allclose(got, npcheb.chebval(xt, c), rtol=0, atol=1e-12)


def test_reinterp_rejects_degree_zero():
    with pytest.raises(ValueError):
        reinterp_matrix(0, 4)


# ---------------------------------------------------------------------------
# projection and extension


def test_extension_small_cases():
    np.testing.assert_array_equal(extension_matrix(2), [[1.0], [1.0], [1.0]])
    # degree 3: interior nodes are +-1/2, and u = x extends to u = x
    got = extension_matrix(3) @ np.array([0.5, -0.5])
    np.testing.assert_allclose(got, [1.0, 0.5, -0.5, -1.0], rtol=0, atol=1e-15)


@pytest.mark.parametrize("N", [2, 3, 5, 12])
def test_projection_of_extension_is_identity(N):
    # projecting onto the interior values is the slice [1:-1]
    E = extension_matrix(N)
    np.testing.assert_array_equal(E[1:-1], np.eye(N - 1))


@pytest.mark.parametrize("N", [3, 6, 11])
def test_extension_extrapolates_low_degree_polynomials(N):
    # for deg <= N-2 the interior interpolant recovers the boundary values
    rng = np.random.default_rng(N)
    c = rng.standard_normal(N - 1)
    x = cgl_points(N)
    vals = npcheb.chebval(x, c)
    got = extension_matrix(N) @ vals[1:-1]
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
    E = extension_matrix(N)
    assert np.max(np.abs(E - _extension_product_formula(N))) <= 1e-12


def _extension_closed_form(N):
    """extension_matrix as an identity interior plus two boundary rows, each
    the interior weights (-1)^(j+1) sin^2(j pi/N) over the distances to the
    boundary node, divided by their sum."""
    x = cgl_points(N)
    t = x[1:-1]
    j = np.arange(1, N)
    lam = np.where(j % 2 == 1, 1.0, -1.0) * np.sin(np.pi * j / N) ** 2
    E = np.zeros((N + 1, N - 1))
    E[1:-1] = np.eye(N - 1)
    for row in (0, N):
        w = lam / (x[row] - t)
        E[row] = w / w.sum()
    return E


@pytest.mark.parametrize("N", [*range(2, 32), 864, 2048])
def test_extension_and_bc_rows_equal_closed_form_bitwise(N):
    E = _extension_closed_form(N)
    assert extension_matrix(N).tobytes() == E.tobytes()
    # the middle block of green_bc_matrix reads the two boundary rows of E
    G = green_matrix(N).entries
    mid = G[:, 1:-1] + G[:, :1] * E[0] + G[:, -1:] * E[-1]
    assert green_bc_matrix(N)[:, 1:-1].tobytes() == mid.tobytes()


@pytest.mark.parametrize("N", [864, 1100, 2048])
def test_extension_stays_finite_at_large_degree(N):
    # the product-formula weights underflowed here
    E = extension_matrix(N)
    assert np.isfinite(E).all()
    np.testing.assert_allclose(E[[0, N]].sum(axis=1), 1.0, rtol=0, atol=1e-12)
    x = cgl_points(N)
    vals = 1.0 + x - 2.0 * x**3
    np.testing.assert_allclose(E @ vals[1:-1], vals, rtol=0, atol=1e-9)


def test_projection_extension_degree_bounds():
    with pytest.raises(ValueError):
        extension_matrix(1)


# ---------------------------------------------------------------------------
# boundary-embedded pair


@pytest.mark.parametrize("N", [2, 3, 4, 16, 257])
def test_green_bc_matrix_middle_block_matches_dense_product(N):
    # built as G's interior columns plus two rank-1 terms, since the interior
    # rows of E are the identity
    R = green_matrix(N).entries @ extension_matrix(N)
    B = green_bc_matrix(N)
    assert np.abs(B[:, 1:-1] - R).max() <= 2 * np.finfo(np.float64).eps * np.abs(R).max()


@pytest.mark.parametrize("N", [2, 3, 4, 16, 64, 257])
def test_bc_matrices_equal_dense_helper_formulas_bitwise(N):
    # diff2_bc_matrix overwrites the boundary rows of D2 in place and
    # green_bc_matrix reads only the boundary rows of E; the formulas with a
    # zero matrix and the dense extension give the same bits
    A = np.zeros((N + 1, N + 1))
    A[1:-1] = diff2_matrix(N)[1:-1]
    A[0, 0] = A[-1, -1] = 1.0
    assert diff2_bc_matrix(N).tobytes() == A.tobytes()
    x = cgl_points(N)
    G = green_matrix(N).entries
    E = extension_matrix(N)
    B = np.empty((N + 1, N + 1))
    B[:, 0] = 0.5 * (x[0] + x)
    B[:, -1] = -0.5 * (x[-1] + x)
    B[:, 1:-1] = G[:, 1:-1] + G[:, :1] * E[0] + G[:, -1:] * E[-1]
    assert green_bc_matrix(N).tobytes() == B.tobytes()


@pytest.mark.parametrize("N", [2, 3, 8, 21])
def test_bc_matrices_shapes_and_boundary_rows(N):
    A = diff2_bc_matrix(N)
    B = green_bc_matrix(N)
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
    A = diff2_bc_matrix(N)
    B = green_bc_matrix(N)
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
    got = green_bc_matrix(N) @ rhs
    lin = (alpha - beta) / 2.0 * x + (alpha + beta) / 2.0
    exact = np.exp(x) - np.sinh(1.0) * x - np.cosh(1.0) + lin
    np.testing.assert_allclose(got, exact, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# inverse diagnostics


@pytest.mark.parametrize("N", [3, 8, 32])
def test_left_inverse_deviation_is_small(N):
    assert _dev_left_inverse(N) < 1e-8


@pytest.mark.parametrize("N", [4, 8, 32])
def test_right_inverse_deviation_is_small(N):
    assert _dev_right_inverse(N) < 1e-8


# the checks form their products in row panels written over a factor, the
# left-inverse one in the same order as here, the right-inverse one right to
# left (the one-shot chain below runs left to right): the left-inverse
# deviation keeps its bits, the right-inverse one moves by round-off
@pytest.mark.parametrize("N", [64, 257, 512])
def test_inverse_deviations_match_direct_products(N):
    G = green_matrix(N).entries
    D2 = diff2_matrix(N)
    eye = np.eye(N - 1)
    left = float(np.abs((G @ D2)[1:-1, 1:-1] - eye).max())
    assert _dev_left_inverse(N) == left
    right = float(np.abs(reinterp_matrix(N, N - 2) @ D2 @ G @ reinterp_matrix(N - 2, N)
                         - eye).max())
    assert abs(_dev_right_inverse(N) - right) <= 0.1 * right
