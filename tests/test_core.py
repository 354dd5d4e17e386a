"""Grids, barycentric weights, the DCT-I kernel, the transforms, and the
memo of degree-only set-ups."""

import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from chebgreen import METHODS, GreenMatrix, NodeVector, cgl_points, dct1, solve_bvp
from chebgreen import calculus, core, operators
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
    got = _node_to_coeff_values(np.array([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(got, [1.0, 0.0, 0.0], rtol=0, atol=2e-16)


def test_node_to_coeffs_pure_t2():
    # T_2 sampled at {1, 0, -1} is [1, -1, 1]
    got = _node_to_coeff_values(np.array([1.0, -1.0, 1.0]))
    np.testing.assert_allclose(got, [0.0, 0.0, 1.0], rtol=0, atol=2e-16)


def test_coeffs_to_nodes_pure_t1():
    got = _coeff_to_node_values(np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(got, [1.0, 0.0, -1.0], rtol=0, atol=2e-16)


def test_transform_round_trip():
    rng = np.random.default_rng(7)
    u = rng.standard_normal(34)  # N = 33
    back = _coeff_to_node_values(_node_to_coeff_values(u))
    assert np.max(np.abs(back - u)) < 1e-13


@pytest.mark.parametrize("N", [1, 2, 5, 16])
def test_node_to_coeffs_matches_chebyshev_fit(N):
    # independent reference: numpy's Chebyshev interpolation
    rng = np.random.default_rng(N)
    u = rng.standard_normal(N + 1)
    x = cgl_points(N)
    c = npcheb.chebfit(x, u, N)
    np.testing.assert_allclose(_node_to_coeff_values(u), c, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k,M", [(0, 4), (3, 4), (4, 4), (2, 9)])
def test_eval_chebyshev_at_cgl(k, M):
    # T_k at the degree-M grid is the image of the k-th unit coefficient vector
    e_k = np.zeros(M + 1)
    e_k[k] = 1.0
    expect = npcheb.chebval(cgl_points(M), e_k)
    got = _coeff_to_node_values(e_k)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# containers


def test_node_vector_infers_and_checks_degree():
    v = NodeVector([1.0, 2.0, 3.0])
    assert v.grid_degree == 2
    with pytest.raises(ValueError):
        NodeVector([1.0])  # a single value has no degree >= 1 grid


def test_vectors_are_read_only():
    v = NodeVector([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        v.values[0] = 9.0


def test_carriers_take_a_float64_array_without_copying():
    # a contiguous float64 array is kept as it is and becomes read-only for
    # its caller too; anything else is converted into a fresh array
    a = np.array([1.0, 2.0])
    assert NodeVector(a).values is a and not a.flags.writeable
    G = np.eye(3)
    assert GreenMatrix(G).entries is G and not G.flags.writeable
    c = np.arange(3)
    assert NodeVector(c).values is not c and c.flags.writeable


@pytest.mark.parametrize("make", [lambda: NodeVector(np.ones(5)), lambda: GreenMatrix(np.eye(5))],
                         ids=["NodeVector", "GreenMatrix"])
def test_carriers_compare_by_identity_and_hash(make):
    # two carriers of equal values are distinct objects; the values compare
    # with np.array_equal.  Field-wise equality would compare arrays, which
    # raises, and would leave the frozen carriers unhashable
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b
    assert a in [b, a] and b not in [a]
    assert hash(a) == hash(a) and hash(a) != hash(b)
    assert len({a, b, a}) == 2 and {a: 1}[a] == 1
    field = "values" if isinstance(a, NodeVector) else "entries"
    assert np.array_equal(getattr(a, field), getattr(b, field))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("vector", [NodeVector])
def test_vectors_reject_non_finite_values(vector, bad):
    values = np.ones(5)
    values[2] = bad
    with pytest.raises(ValueError, match="finite"):
        vector(values)


def test_complex_values_are_refused_not_truncated():
    # a float64 cast would keep only the real part, with a ComplexWarning
    x = cgl_points(4)
    f = np.exp(x) * (1 + 1j)
    with pytest.raises(TypeError, match="^NodeVector.values must be real; got complex values$"):
        NodeVector(f)
    with pytest.raises(TypeError, match="^GreenMatrix.entries must be real; got complex values$"):
        GreenMatrix(np.outer(f, f))
    with pytest.raises(TypeError, match="^dct1 input must be real; got complex values$"):
        dct1(f)
    # a complex dtype is refused even when every imaginary part is zero
    with pytest.raises(TypeError, match="must be real"):
        NodeVector(x.astype(complex))


# ---------------------------------------------------------------------------
# the memo of degree-only set-ups: the stripped solve's parity blocks and
# G's factors


def _leaves(value):
    # the arrays of a tree of tuples of arrays
    if isinstance(value, tuple):
        return [a for v in value for a in _leaves(v)]
    return [value]


@pytest.mark.parametrize("N", [2, 3, 64, 65, 1024, 1025])
@pytest.mark.parametrize("method", METHODS)
def test_cold_and_warm_solves_give_the_same_bits(method, N, cold_memo):
    f = NodeVector(np.exp(np.sin(3.0 * cgl_points(N))))
    cold = solve_bvp(f, method).values
    # matrix-free has no set-up to keep
    assert (cold_memo.nbytes > 0) == (method != "matrix-free")
    warm = solve_bvp(f, method).values
    assert _same_bits(cold, warm)


@pytest.mark.parametrize("builder", [operators._stripped_factors, calculus._green_factors,
                                     calculus._dense_spectrum])
def test_memoized_arrays_refuse_writes(builder, cold_memo):
    for result in (builder(64), builder(64)):
        for a in _leaves(result):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1.0


def test_memo_counts_each_buffer_once(cold_memo):
    # the two parity blocks are views of one buffer
    N = 1024
    even, odd = operators._stripped_factors(N)
    assert cold_memo.nbytes == even.nbytes + odd.nbytes
    # G's factors are O(N): the sine-sum windows count their one table,
    # not the (N+1)^2 doubles their nbytes reports
    cold_memo.clear()
    factors = calculus._green_factors(N)
    assert sum(a.nbytes for a in _leaves(factors)) > 8 * (N + 1) ** 2
    assert cold_memo.nbytes < 16 * 8 * (N + 1)


def test_degree_sweep_keeps_at_most_the_budget(cold_memo):
    # blocks of 4 to 32 MiB, 150 MiB together: older degrees are dropped,
    # and what the sweep leaves alive, memo included, stays within the
    # budget plus 1 MiB for the memo's own objects and numpy's caches
    # (measured 0.13 MB above the memo's bytes)
    degrees = range(1024, 2898, 128)
    tracemalloc.start()
    try:
        for N in degrees:
            operators._stripped_factors(N)
            calculus._green_factors(N)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert core._MEMO_BUDGET // 2 < cold_memo.nbytes <= core._MEMO_BUDGET
    assert held <= core._MEMO_BUDGET + (1 << 20)
    # the latest degree is kept, the first was dropped
    build = operators._stripped_factors.__wrapped__
    assert (build, degrees[-1]) in cold_memo._entries
    assert (build, degrees[0]) not in cold_memo._entries


def test_result_larger_than_the_budget_is_not_kept(cold_memo):
    # the parity blocks fit the 32 MiB budget up to N = 2897
    kept = operators._stripped_factors(2897)
    assert cold_memo.nbytes == sum(a.nbytes for a in kept) <= core._MEMO_BUDGET
    assert operators._stripped_factors(2897) is kept
    big = operators._stripped_factors(2898)
    assert sum(a.nbytes for a in big) > core._MEMO_BUDGET
    # neither kept nor making room: the smaller entry stays
    assert cold_memo.nbytes == sum(a.nbytes for a in kept)
    assert operators._stripped_factors(2898) is not big


def test_failed_build_keeps_nothing(cold_memo, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError

    N = 64
    f = NodeVector(np.cos(3.0 * cgl_points(N)))
    want = solve_bvp(f, "linear-system").values
    cold_memo.clear()
    monkeypatch.setattr(operators, "_diff2_panel", out_of_memory)
    with pytest.raises(MemoryError):
        solve_bvp(f, "linear-system")
    assert cold_memo.nbytes == 0
    monkeypatch.undo()
    assert _same_bits(solve_bvp(f, "linear-system").values, want)
    assert cold_memo.nbytes > 0


def test_memo_stays_consistent_under_threads():
    # more threads than cores on a memo that holds a few entries, switching
    # often: every call returns its own degree's result, and the byte count
    # equals the sum of the kept entries and stays within the budget
    memo = core._Memo(budget=40 * 8)
    errors = []

    @memo
    def build(N):
        return (np.zeros(N),)

    def sweep():
        try:
            for _ in range(200):
                for N in range(1, 20):
                    if build(N)[0].shape != (N,):
                        errors.append(N)
        except Exception as exc:  # reported below, not lost with the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    sizes = [size for _, size in memo._entries.values()]
    assert memo.nbytes == sum(sizes) <= memo.budget
