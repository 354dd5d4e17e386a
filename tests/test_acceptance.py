"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test prints the measured figure next to its bound so a
margin regression is visible before it becomes a failure.
"""

import time

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from chebgreen import (
    NodeVector,
    apply_green_matrix_free,
    cc_weights,
    cgl_points,
    consistent_gram_matrix,
    dct1,
    green_matrix,
    solve_bvp,
)
from chebgreen.cli import (_dev_left_inverse, _dev_right_inverse, _dev_symmetry,
                           diff2_bc_matrix, green_bc_matrix)
from chebgreen.oracle import green_matrix_dense_oracle
from references import dct1_naive

_EPS = np.finfo(np.float64).eps


def test_criterion_01_dense_assembly_matches_reference():
    t0 = time.perf_counter()
    worst = 0.0
    for N in range(1, 11):
        dev = np.max(np.abs(green_matrix(N).entries - green_matrix_dense_oracle(N).entries))
        worst = max(worst, float(dev))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 1.0
    print(f"PASS reference agreement: worst {worst:.2e} (< 1e-12), {elapsed:.2f}s (< 1s)")


def test_criterion_02_polynomial_solutions_are_exact():
    cases = {
        "1": (lambda x: np.ones_like(x), lambda x: (x**2 - 1.0) / 2.0),
        "x": (lambda x: x, lambda x: (x**3 - x) / 6.0),
        "x^2": (lambda x: x**2, lambda x: (x**4 - 1.0) / 12.0),
        "T3": (
            lambda x: npcheb.chebval(x, [0, 0, 0, 1]),
            lambda x: x**5 / 5.0 - x**3 / 2.0 + 3.0 * x / 10.0,
        ),
        "T5": (
            lambda x: npcheb.chebval(x, [0, 0, 0, 0, 0, 1]),
            lambda x: 8.0 * x**7 / 21.0 - x**5 + 5.0 * x**3 / 6.0 - 3.0 * x / 14.0,
        ),
    }
    worst = 0.0
    for N in (6, 12, 24):
        x = cgl_points(N)
        G = green_matrix(N).entries
        for name, (f, y) in cases.items():
            exact = y(x)
            rel = np.max(np.abs(G @ f(x) - exact)) / np.max(np.abs(exact))
            worst = max(worst, float(rel))
    assert worst < 1e-12
    # spot value: constant forcing on the degree-3 grid
    spot = green_matrix(3).entries @ np.ones(4)
    np.testing.assert_allclose(spot[1:3], [-0.375, -0.375], rtol=1e-12)
    print(f"PASS polynomial exactness: worst relative {worst:.2e} (< 1e-12)")


def test_criterion_03_structural_invariants_hold_exactly():
    for N in (1, 2, 3, 4, 7, 10, 17, 32):
        G = green_matrix(N).entries
        np.testing.assert_array_equal(G[0], np.zeros(N + 1))
        np.testing.assert_array_equal(G[N], np.zeros(N + 1))
        np.testing.assert_array_equal(G, G[::-1, ::-1])
    assert green_matrix(3).entries[1, 1] == -0.25
    print("PASS structure: boundary rows and centrosymmetry bitwise, corner value exact")


def test_criterion_04_inverse_identities():
    t0 = time.perf_counter()
    worst_left = max(_dev_left_inverse(N) for N in range(3, 65))
    worst_right = max(_dev_right_inverse(N) for N in range(4, 65))
    worst_bc = 0.0
    for N in range(2, 33):
        A = diff2_bc_matrix(N)
        B = green_bc_matrix(N)
        eye = np.eye(N + 1)
        worst_bc = max(
            worst_bc,
            float(np.max(np.abs(A @ B - eye))),
            float(np.max(np.abs(B @ A - eye))),
        )
    elapsed = time.perf_counter() - t0
    assert worst_left < 1e-8
    assert worst_right < 1e-8
    assert worst_bc < 1e-8
    assert elapsed < 30.0
    print(
        f"PASS inverses: left {worst_left:.2e}, right {worst_right:.2e}, "
        f"embedded {worst_bc:.2e} (< 1e-8), {elapsed:.1f}s (< 30s)"
    )


def test_criterion_05_fast_apply_equals_dense_apply():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for N in (4, 16, 64, 256, 1024):
        f = rng.standard_normal(N + 1)
        dense = green_matrix(N).entries @ f
        free = apply_green_matrix_free(NodeVector(f)).values
        worst = max(worst, float(np.max(np.abs(dense - free)) / np.max(np.abs(f))))
    assert worst < 1e-12
    print(f"PASS fast apply: worst scaled deviation {worst:.2e} (< 1e-12)")


def test_criterion_06_fast_apply_scales_quasilinearly():
    sizes = [2**k for k in range(10, 17)]
    medians = []
    for N in sizes:
        f = NodeVector(np.exp(cgl_points(N)))
        apply_green_matrix_free(f)  # warm-up: grid and FFT plan caches
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            apply_green_matrix_free(f)
            samples.append(time.perf_counter() - t0)
        medians.append(float(np.median(samples)))
    slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])
    t0 = time.perf_counter()
    green_matrix(4096)
    build = time.perf_counter() - t0
    assert slope < 1.5
    assert build < 60.0
    print(f"PASS scaling: slope {slope:.2f} (< 1.5), dense build {build:.1f}s (< 60s)")


def test_criterion_07_spectral_convergence_on_smooth_forcing():
    floor = 1e-13
    errs = []
    for N in (4, 8, 12, 16, 20, 24):
        x = cgl_points(N)
        y = solve_bvp(NodeVector(np.exp(x)), "dense-green").values
        exact = np.exp(x) - x * np.sinh(1.0) - np.cosh(1.0)
        errs.append(float(np.max(np.abs(y - exact))))
    assert errs[-1] < 1e-12
    for a, b in zip(errs, errs[1:]):
        assert b < a or (a < floor and b < floor)
    pretty = ", ".join(f"{e:.1e}" for e in errs)
    print(f"PASS convergence: errors [{pretty}], final < 1e-12")


def test_criterion_08_quadrature_and_inner_product():
    for M in range(1, 4097):
        w = cc_weights(M)
        assert abs(float(w.sum()) - 2.0) < 1e-13
        assert float(w.min()) > 0.0
    worst_ip = 0.0
    for N in range(1, 17):
        S = consistent_gram_matrix(N)
        x = cgl_points(N)
        powers = [x**a for a in range(N + 1)]
        for a in range(N + 1):
            for b in range(N + 1):
                got = powers[b] @ S @ powers[a]
                exact = 2.0 / (a + b + 1) if (a + b) % 2 == 0 else 0.0
                worst_ip = max(worst_ip, abs(got - exact))
    assert worst_ip < 1e-12
    worst_sym = max(_dev_symmetry(N) for N in range(3, 33))
    assert worst_sym < 1e-9
    print(
        f"PASS quadrature: weights normalized to 4096, products {worst_ip:.2e} "
        f"(< 1e-12), symmetry {worst_sym:.2e} (< 1e-9)"
    )


def test_criterion_09_transform_kernel_invariants():
    worst_inv = 0.0
    worst_pair = 0.0
    for n in (2, 3, 5, 17, 129, 513, 1025, 4097, 8193):
        v = np.random.default_rng(n).standard_normal(n)
        inv = float(np.max(np.abs(dct1(dct1(v)) - v)))
        pair = float(np.max(np.abs(dct1(v) - dct1_naive(v))))
        assert inv < 1e-14
        assert pair < max(1e-13, 6.0 * n * _EPS)
        worst_inv = max(worst_inv, inv)
        worst_pair = max(worst_pair, pair)
    print(
        f"PASS transform kernel: self-inverse {worst_inv:.2e} (< 1e-14), "
        f"fast vs direct {worst_pair:.2e} at scaled bounds"
    )
