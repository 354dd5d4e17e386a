"""The assembled Green matrix and the three solve paths."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chebgreen import (
    METHODS,
    GreenMatrix,
    NodeVector,
    apply_green_matrix_free,
    green_matrix,
    solve_bvp,
)
from chebgreen import calculus, core, green
from chebgreen.calculus import (_antiderivative_raw, _lagrange_primitive_terms,
                                _lagrange_primitive_values, _primitive_tables)
from chebgreen.core import _node_to_coeff_values, cgl_points
from chebgreen.oracle import green_matrix_dense_oracle
from references import coeff_to_node_values


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
    # both sides agree to 0.38 eps up to N = 10; the bound sits well inside
    # criterion 01's 1e-12
    G = green_matrix(N).entries
    R = green_matrix_dense_oracle(N).entries
    assert np.max(np.abs(G - R)) <= 2e-14


@pytest.mark.parametrize("N", list(range(1, 71)) + [127, 128, 129, 255, 256, 257,
                                                    1023, 1024, 1025])
def test_green_matrix_structure(N):
    G = green_matrix(N).entries
    assert G.shape == (N + 1, N + 1)
    # +0.0 bit for bit: assert_array_equal lets -0.0 through, and the export
    # writes -0.0 differently
    assert np.all(G[[0, N]].view(np.uint64) == 0)
    # centrosymmetry holds bit for bit by construction (-0.0 mirrors only
    # -0.0), which the CLI's export writes its mirrored half from
    bits = G.view(np.uint64)
    np.testing.assert_array_equal(bits, bits[::-1, ::-1])


@pytest.mark.parametrize("N", list(range(2, 11)))
def test_green_matrix_interior_diagonal_negative(N):
    # G(x, x) = (x^2 - 1)/2 < 0 away from the ends
    d = np.diag(green_matrix(N).entries)
    assert np.all(d[1:-1] < 0.0)


def _green_matrix_per_column(N):
    """Column-by-column chord-form assembly: for each half-column i, the
    sine-sum row of the Lagrange primitive scaled by scale_i (x - x_i), plus
    row i of the rank-5 product over the node rows sigma x^2, sigma x,
    sigma, x and 1, whose coefficients carry the primitive's rank-1 terms
    times (x - x_i), the node-polynomial primitive taken from x = -1 and
    the chord through the column's end values."""
    x = cgl_points(N)
    half = N // 2
    tables = _primitive_tables(N)
    scale, terms, nodes = _lagrange_primitive_terms(N, tables, x)
    coef = np.empty((half + 1, 5))
    for i in range(half + 1):
        alpha, beta, gamma, p_0, p_nm1, p_n, p_end = terms[i]
        # the column's end values, formed as the whole column would be
        d = _lagrange_primitive_values(slice(i, i + 1), N, tables[2])[0]
        h = d[[0, N]] * scale[i] + p_nm1 * nodes[1, [0, N]] + p_n * nodes[2, [0, N]] + p_0
        u0, un = h * (x[[0, N]] - x[i])
        if N % 2:  # P_i(1) - P_i(-1)
            u0 += 2.0 * p_end
        coef[i] = [alpha, beta, gamma, p_0 - 0.5 * (u0 - un),
                   (p_end - x[i] * p_0) - 0.5 * (u0 + un)]
    # numpy runs a one-row product as a matrix-vector kernel, which rounds
    # differently, so the product takes the assembly's row blocks
    low = np.concatenate([coef[s : s + green._BLOCK] @ nodes
                          for s in range(0, half + 1, green._BLOCK)])
    G = np.empty((N + 1, N + 1))
    for i in range(half + 1):
        col = _lagrange_primitive_values(slice(i, i + 1), N, tables[2])[0]
        col *= scale[i] * (x - x[i])
        col += low[i]
        G[:, i] = col
    G[[0, N], : half + 1] = 0.0
    if N % 2 == 0:
        G[:, half] = 0.5 * (G[:, half] + G[::-1, half])
    for i in range(half + 1, N + 1):
        G[:, i] = G[::-1, N - i]
    return G


# N = 63 and 64 put N/2 + 1 half-columns at and one past the assembly block.
# The reference builds the sine tables once and reads one column per call;
# green_matrix reads a block of columns per call.
@pytest.mark.parametrize("N", list(range(1, 13)) + [16, 31, 32, 33, 62, 63, 64, 65, 66,
                                                     256, 257, 1024, 2048])
def test_green_matrix_equals_per_column_assembly_bitwise(N):
    G = green_matrix(N).entries
    ref = _green_matrix_per_column(N)
    assert G.shape == ref.shape and G.tobytes() == ref.tobytes()


@pytest.mark.parametrize("N", [3, 8, 33, 64, 65])
def test_green_matrix_columns_match_public_primitives(N):
    # column i from the Lagrange primitive, rebuilt from the kernel's
    # parts, and the node-polynomial primitive, evaluated on the degree-2N
    # grid with one transform, both anchored at both ends: a form of the
    # column that takes no chord off
    G = green_matrix(N).entries
    x = cgl_points(N)
    tol = 1e-14 * np.max(np.abs(G))
    tables = _primitive_tables(N)
    # T_{N+2}/(N+2) - 2 T_N/N + T_{N-2}/(N-2), times the unscaled CGL
    # weight over 4N per column
    base = np.zeros(2 * N + 1)
    base[N - 2] = 1.0 / (N - 2)
    base[N] = -2.0 / N
    base[N + 2] = 1.0 / (N + 2)
    q = coeff_to_node_values(base)[::2]
    scale, coef, rows = _lagrange_primitive_terms(N, tables, x)
    for i in range(N // 2 + 1):
        h = scale[i] * _lagrange_primitive_values(slice(i, i + 1), N, tables[2])[0]
        h += coef[i, 4] * rows[1] + coef[i, 5] * rows[2] + coef[i, 3]
        p = (-1.0) ** i * (0.5 if i == 0 else 1.0) / (4.0 * N) * q
        col = 0.5 * (x + 1.0) * (p[0] - p + (x[i] - 1.0) * (h[0] - h))
        col += 0.5 * (x - 1.0) * (p - p[-1] + (x[i] + 1.0) * (h - h[-1]))
        assert np.max(np.abs(G[:, i] - col)) <= tol, i


@pytest.mark.parametrize("N", list(range(2, 13)) + [33, 64, 65, 128, 256, 383, 509, 511, 512])
def test_green_matrix_matches_extended_precision_reference(N):
    # the reference is the identity G.T = U in long double, rounded once.
    # Measured at most 2.6 eps max|G| up to N = 128, 3.3 at N = 256, 511
    # and 512, 4.8 at N = 383 and 5.7 at N = 509; a (1 + 1e-9) G scale
    # fault fails at every N
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("long double is not an extended type on this platform")
    G = green_matrix(N).entries
    ref = green_matrix_dense_oracle(N).entries
    eps = np.finfo(np.float64).eps
    assert np.max(np.abs(G - ref)) <= 8 * eps * np.max(np.abs(G))


def _chebyshev_identity_gap(G):
    """max |G T - U| for G of degree N, with T[j, m] = T_m(x_j) and U[k, m]
    = u_m(x_k), u_m'' = T_m, u_m(+-1) = 0.  T_m interpolates itself for
    m <= N, so G T = U holds exactly, and T is invertible, so it pins all of
    G.  Only np.fft and closed forms, in 64-row panels: row k of G T is the
    DCT-I of row k of G, half the rfft of its even extension plus the two
    end terms that the extension counts once."""
    N = G.shape[0] - 1
    m = np.arange(N + 1)
    sign = (-1.0) ** m
    cosines = np.cos(np.pi * np.arange(2 * N) / N)  # T_j(x_k) = cosines[k j mod 2N]
    # for m >= 3, u_m = a T_{m+2} + b T_m + d T_{m-2} less the line through
    # its end values, s = a + b + d at x = 1 and (-1)^m s at x = -1
    q = m[3:].astype(float)
    a = 1.0 / (4.0 * (q + 1.0) * (q + 2.0))
    b = -1.0 / (2.0 * (q * q - 1.0))
    d = 1.0 / (4.0 * (q - 1.0) * (q - 2.0))
    s = a + b + d
    gap = 0.0
    for start in range(0, N + 1, 64):
        rows = G[start : start + 64]
        k = np.arange(start, start + len(rows))
        ext = np.concatenate([rows, rows[:, -2:0:-1]], axis=1)
        GT = 0.5 * (np.fft.rfft(ext).real + rows[:, :1] + sign * rows[:, -1:])
        T = cosines[np.outer(k, np.arange(N + 3)) % (2 * N)]
        x = T[:, 1:2]
        # u_0, u_1 and u_2, where the general form divides by zero
        low = np.hstack([(x * x - 1.0) / 2.0, (x ** 3 - x) / 6.0,
                         x ** 4 / 6.0 - x * x / 2.0 + 1.0 / 3.0])
        U = np.empty_like(GT)
        U[:, :3] = low[:, : N + 1]
        U[:, 3:] = a * T[:, 5:] + b * T[:, 3 : N + 1] + d * T[:, 1 : N - 1]
        U[:, 3:] -= s * T[:, m[3:] % 2]
        gap = max(gap, np.max(np.abs(GT - U)))
    return gap


# G.T = U checked by FFT at degrees the long-double oracle does not reach
# here.  Measured at most 2.0 eps over N = 1..300, 511..513 and the examples,
# the worst at N = 283, on the default and the Prescott BLAS kernels; the
# scale fault below reads 2.25e6 eps
@example(N=1023)
@example(N=1024)
@example(N=1025)
@example(N=2048)
@example(N=2049)
@example(N=4096)
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(N=st.integers(1, 300))
def test_green_matrix_satisfies_chebyshev_identity(N):
    eps = np.finfo(np.float64).eps
    assert _chebyshev_identity_gap(green_matrix(N).entries) <= 16 * eps


def test_chebyshev_identity_sees_a_scale_fault():
    eps = np.finfo(np.float64).eps
    G = (1 + 1e-9) * green_matrix(1024).entries
    assert _chebyshev_identity_gap(G) > 16 * eps


def test_green_matrix_mirror_needs_no_half_matrix_temporary(traced_peak):
    # G itself is one (N+1)^2 array; copying the mirrored half through a
    # temporary would add half of another
    N = 1024
    green_matrix(N)
    assert traced_peak(green_matrix, N) <= 1.3 * 8 * (N + 1) ** 2


@pytest.mark.parametrize("N", list(range(1, 13)) + [64, 65])
def test_green_matrix_runs_no_dct(N, monkeypatch):
    # the dense path reads sine and cosine tables only; the DCT belongs to
    # the matrix-free path it is cross-checked against
    def refuse(v):
        raise AssertionError("dct1 called")

    monkeypatch.setattr(core, "dct1", refuse)
    G = green_matrix(N).entries
    assert np.array_equal(G, G[::-1, ::-1])


def test_green_matrix_rejects_degree_zero():
    with pytest.raises(ValueError):
        green_matrix(0)


def test_green_matrix_container_checks_shape():
    message = "GreenMatrix.entries needs 2-d, all axes of one length, got shape (2, 3)"
    with pytest.raises(ValueError, match=re.escape(message)):
        GreenMatrix(np.zeros((2, 3)))


def test_node_vector_container_checks_shape():
    message = "NodeVector.values needs 1-d, all axes of one length, got shape (2, 3)"
    with pytest.raises(ValueError, match=re.escape(message)):
        NodeVector(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# dense apply


@pytest.mark.parametrize("N", [*range(1, 13), 16, 31, 32, 33, 63, 64, 65, 66, 256, 257,
                               1024, 2049])
def test_dense_apply_matches_assembled_product(N):
    # the apply splits x_k sum_i - sum_i x_i (...) where G holds the product
    # (x_k - x_i) per entry; measured at most 1.6 eps max(|G| |f|) over these
    # forcings.  Both end values are +0.0, as G's end rows are
    G = green_matrix(N).entries
    eps = np.finfo(float).eps
    rng = np.random.default_rng(N)
    for f in rng.standard_normal((4, N + 1)):
        y = green._apply_green_dense(NodeVector(f)).values
        scale = (np.abs(G) @ np.abs(f)).max()
        assert np.abs(y - G @ f).max() <= 32 * eps * scale
        assert y[[0, -1]].tobytes() == np.zeros(2).tobytes()


@pytest.mark.parametrize("a, N", [(a, N) for N in (1024, 4096)
                                  for a in (-4.0, -2.5, 1.0, 2.5, 4.0)]
                         + [(4.0, 65536), (4.0, 2**20)])
def test_dense_solve_closed_form(a, N):
    # measured 1.2e-16 to 5.9e-16 max|f| over these rates at N = 1024 and
    # 4096, against 0.4e-16 to 2.7e-16 for G @ f, and 5.7e-16 and 2.5e-16
    # at N = 65536 and 2^20, degrees at which G itself would not fit in
    # memory (the 2^20 case takes about 2 s and 450 MB resident on a
    # 2-vCPU Xeon VM)
    x = cgl_points(N)
    f = np.exp(a * x)
    u = (f - (np.cosh(a) + x * np.sinh(a))) / a**2
    y = solve_bvp(NodeVector(f), "dense-green").values
    assert np.abs(y - u).max() <= 2e-15 * np.abs(f).max()


def test_dense_solve_holds_no_matrix(traced_peak, cold_memo):
    # the apply holds O(N), its FFTs' rows and the sine-sum table's
    # spectrum: measured 0.043 (N+1)^2 doubles at N = 1024, where
    # assembling G took 1.15.  The memo is emptied after the first call, so
    # the measured call builds the one set-up, G's factors and the spectrum
    N = 1024
    f = NodeVector(np.cos(3.0 * cgl_points(N)))
    solve_bvp(f, "dense-green")
    cold_memo.clear()
    assert traced_peak(solve_bvp, f, "dense-green") <= 0.1 * 8 * (N + 1) ** 2


def test_dense_solve_memory_is_linear(traced_peak, cold_memo):
    # a cold solve at N = 65536 builds and keeps the one set-up, G's factors
    # and the spectrum (13 doubles a node), and holds the FFTs' four rows:
    # measured 42 doubles a node, 29 on a warm call
    N = 65536
    f = NodeVector(np.cos(3.0 * cgl_points(N)))
    assert traced_peak(solve_bvp, f, "dense-green") <= 64 * 8 * (N + 1)


def test_dense_solve_keeps_one_entry_that_green_matrix_reads(cold_memo, monkeypatch):
    # green_matrix and the dense apply share one set-up per degree, G's
    # factors with the sine-sum table's spectrum: about 13 doubles a node
    N = 1024
    solve_bvp(NodeVector(np.cos(3.0 * cgl_points(N))), "dense-green")
    assert list(cold_memo._entries) == [(calculus._green_factors.__wrapped__, N)]
    kept = cold_memo.nbytes
    assert kept < 14 * 8 * (N + 1)
    calls = []
    monkeypatch.setattr(calculus, "_primitive_tables", calls.append)
    green_matrix(N)
    assert calls == [] and cold_memo.nbytes == kept


def _count_table_builds(monkeypatch):
    calls, build = [], calculus._primitive_tables
    monkeypatch.setattr(calculus, "_primitive_tables", lambda n: calls.append(n) or build(n))
    return calls


def test_dense_solve_below_the_budget_reads_the_kept_set_up(cold_memo, monkeypatch):
    # the memo budget keeps the set-up up to N = 322389: a cold solve at
    # N = 300000 builds the long-double table once, and a warm one reads the
    # kept set-up and builds nothing
    N = 300000
    calls = _count_table_builds(monkeypatch)
    f = NodeVector(np.exp(np.sin(3.0 * cgl_points(N))))
    cold = solve_bvp(f, "dense-green").values
    assert calls == [N]
    assert (calculus._green_factors.__wrapped__, N) in cold_memo._entries

    def refuse(n):
        raise AssertionError("a warm call built the table")

    monkeypatch.setattr(calculus, "_primitive_tables", refuse)
    warm = solve_bvp(f, "dense-green").values
    assert cold.tobytes() == warm.tobytes()


def test_dense_solve_above_the_budget_builds_the_table_once(cold_memo, monkeypatch):
    # at N = 322390 the set-up exceeds the memo budget and is not kept:
    # every call, cold or warm, builds the long-double table once
    N = 322390
    calls = _count_table_builds(monkeypatch)
    f = NodeVector(np.exp(np.sin(3.0 * cgl_points(N))))
    cold = solve_bvp(f, "dense-green").values
    assert calls == [N]
    assert (calculus._green_factors.__wrapped__, N) not in cold_memo._entries
    warm = solve_bvp(f, "dense-green").values
    assert calls == [N, N]
    assert cold.tobytes() == warm.tobytes()


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


@pytest.mark.parametrize("N", [*range(2, 13), 63, 64, 65, 256, 1024, 4096])
def test_apply_gap_to_dense_multiply_stays_at_rounding(N):
    # per forcing, max|MF f - G f| over max(|G| |f|), the scale of the dense
    # product's summands, on 8 N(0, 1) forcings from each of five seeds:
    # measured at most 5.0 eps, falling with N.  Over max|G f| the same gaps
    # reach 102 eps (seed 7, N = 4096, where max|G f| is ten times below
    # typical and G @ f itself is 100 eps from an extended-precision product)
    G = green_matrix(N).entries
    eps = np.finfo(float).eps
    for seed in (0, 1, 7, 2024, 12345):
        F = np.random.default_rng(seed).standard_normal((8, N + 1))
        absF = np.abs(F).T
        scale = np.max([(np.abs(G[r:r + 512]) @ absF).max(axis=0)
                        for r in range(0, N + 1, 512)], axis=0)
        for f, s in zip(F, scale):
            gap = np.max(np.abs(apply_green_matrix_free(NodeVector(f)).values - G @ f))
            assert gap <= 16 * eps * s, (seed, gap / (eps * s))


def _fine_grid_apply(f):
    """Reference for apply_green_matrix_free without the fold: integrate
    twice on 2N + 2 coefficients, evaluate on the degree-2N grid and keep its
    even-index nodes, the degree-N grid."""
    N = f.size - 1
    c = np.concatenate([_node_to_coeff_values(f), np.zeros(N + 1)])
    prim2 = _antiderivative_raw(_antiderivative_raw(c))[: 2 * N + 1]
    h = coeff_to_node_values(prim2)[::2]
    x = cgl_points(N)
    y = h - h[0] * (0.5 * (1.0 + x)) - h[-1] * (0.5 * (1.0 - x))
    y[0] = 0.0
    y[-1] = 0.0
    return y


@pytest.mark.parametrize("N", list(range(2, 13)) + [63, 64, 65, 256, 1024, 2048])
def test_apply_fold_matches_fine_grid_reference(N):
    # random forcings cancel in G @ f, so the bound scales with max|f| (the
    # Green matrix has entries of size at most 1/2); measured worst case
    # 0.5 ulps of max|f| over five forcings per degree
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


def _phi(z):
    """(e^z - 1 - z) / z^2 without cancellation: its Taylor series
    sum_k z^k / (k+2)! for |z| < 1, the direct formula elsewhere."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.zeros_like(z)
    for k in range(20, -1, -1):
        out = out * z + 1.0 / math.factorial(k + 2)
    far = np.abs(z) >= 1.0
    out[far] = (np.exp(z[far]) - 1.0 - z[far]) / z[far] ** 2
    return out


def _closed_form_pair(kind, t, N):
    """A forcing f on the degree-N grid and the exact solution u of u'' = f,
    u(+-1) = 0 there.

    f is exp(a x) or sin(b x + 0.3), Re(s e^{zx}) with z = a, s = 1 or
    z = i b, s = -i e^{0.3 i}; then u = Re(s (x^2 phi(zx) - even - x odd)),
    with even and odd the halved sum and difference of phi(z) and phi(-z),
    which takes no difference of nearly equal terms even where z is tiny.
    The rate is t times a cap that shrinks with N so that the Chebyshev
    tail of f beyond degree N, about (|z|/2)^(N+1)/(N+1)!, stays below
    1e-17: the interpolant then is f to round-off, so u is what the
    matrix-free apply must return.
    """
    cap = 2.0 * math.exp((math.log(1e-17) + math.lgamma(N + 2)) / (N + 1))
    x = cgl_points(N)
    if kind == "exp":
        a = t * min(2.5, cap)
        z, s, f = a, 1.0, np.exp(a * x)
    else:
        b = t * min(7.0, cap)
        z, s, f = 1j * b, -1j * np.exp(0.3j), np.sin(b * x + 0.3)
    even = 0.5 * (_phi(z) + _phi(-z))
    odd = 0.5 * (_phi(z) - _phi(-z))
    u = (s * (x**2 * _phi(z * x) - even - x * odd)).real
    return f, u


# odd, even and prime lengths N + 1 over the whole range, beside the drawn ones
@example(N=2, kind="exp", t=1.0)
@example(N=3, kind="sin", t=1.0)
@example(N=30, kind="sin", t=1.0)
@example(N=4_096, kind="exp", t=1.0)
@example(N=65_520, kind="sin", t=1.0)  # N + 1 = 65 521 is prime
@example(N=99_991, kind="exp", t=1.0)  # N is prime: 2N takes pocketfft's slow path
@example(N=100_000, kind="sin", t=1.0)
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(N=st.integers(2, 100_000), kind=st.sampled_from(["exp", "sin"]),
       t=st.floats(0.0, 1.0))
def test_apply_degree_sweep_matches_closed_form(N, kind, t):
    f, u = _closed_form_pair(kind, t, N)
    y = apply_green_matrix_free(NodeVector(f)).values
    assert np.abs(y - u).max() <= 1e-13 * np.abs(f).max()
    assert y[0] == 0.0 and y[-1] == 0.0


def test_apply_runs_two_dcts_and_no_node_space_pass(monkeypatch):
    # one transform in, one out, both looked up on core where the benchmark
    # tracer wraps them; no grid points are built for a node-space line, and
    # green has no grid-point builder to reach: the dense set-up builds them
    # in calculus
    assert not hasattr(green, "cgl_points")
    calls = {"dct1": 0, "_antiderivative_raw": 0, "cgl_points": 0}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)

    count(core, "dct1")
    count(green, "_antiderivative_raw")
    count(core, "cgl_points")
    f = NodeVector(np.exp(cgl_points(64)))
    apply_green_matrix_free(f)
    assert calls == {"dct1": 2, "_antiderivative_raw": 2, "cgl_points": 0}


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
