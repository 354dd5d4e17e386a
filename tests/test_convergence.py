"""Each solve path's error against closed-form solutions as N grows.

Two forcings of different smoothness (Trefethen, ATAP ch. 7-8): the Runge
function 1/(1 + 25x^2), analytic in a Bernstein ellipse, so the error
falls geometrically; and |x|^3, in C^2 only, so it falls algebraically.
The script form prints the README's convergence table:

    PYTHONPATH=src python tests/test_convergence.py
"""

import numpy as np
import pytest

from chebgreen import METHODS, NodeVector, cgl_points, solve_bvp


def _runge(x):
    # u = g(x) - g(1): g' = arctan(5x)/5, g'' = 1/(1 + 25x^2), g even
    def g(t):
        return t / 5 * np.arctan(5 * t) - np.log1p(25 * t * t) / 50
    return 1 / (1 + 25 * x * x), g(x) - g(1.0)


def _cubic(x):
    return np.abs(x) ** 3, (np.abs(x) ** 5 - 1) / 20


PROBLEMS = {"Runge": _runge, "|x|^3": _cubic}

# (forcing, N) -> the max |y - u| bound of each method in METHODS order
# (dense-green, matrix-free, linear-system), at least 5x the error measured
# on an AVX-512 Xeon with OpenBLAS's default and Prescott kernels; more at
# rounding level, which moves with the kernel (linear-system at |x|^3,
# N = 1024: 6.4e-13, and 7.9e-13 on Prescott).  Matrix-free and
# dense-green stay near eps once f is resolved; linear-system solves a
# different discrete problem (G E f), and its rounding floor grows about
# as N^2
BOUNDS = {
    ("Runge", 32): (2e-5, 2e-5, 2e-5),
    ("Runge", 64): (1.5e-9, 1.5e-9, 1.5e-9),
    ("Runge", 128): (2e-15, 2e-15, 2e-14),
    ("Runge", 4096): (2e-15, 2e-15, 2e-11),
    ("|x|^3", 64): (3e-7, 3e-7, 3e-7),
    ("|x|^3", 1024): (5e-12, 5e-12, 5e-12),
    ("|x|^3", 4096): (2e-14, 2e-14, 5e-12),
}


def max_error(problem, N, method):
    f, u = PROBLEMS[problem](cgl_points(N))
    return float(np.max(np.abs(solve_bvp(NodeVector(f), method).values - u)))


def tail_ratio(problem, N):
    """max |c_k| over the last N/16 Chebyshev coefficients of f's
    interpolant, over max |c_k|: how far f is from resolved at N.

    The coefficients come from the FFT of the node values' even extension.
    """
    f, _ = PROBLEMS[problem](cgl_points(N))
    c = np.fft.rfft(np.concatenate([f, f[-2:0:-1]])).real
    c[[0, N]] /= 2
    c = np.abs(c)
    return float(c[-(N // 16):].max() / c.max())


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("problem, N", BOUNDS, ids=str)
def test_error_stays_within_its_pinned_bound(problem, N, method):
    assert max_error(problem, N, method) <= BOUNDS[problem, N][METHODS.index(method)]


def table():
    """The README's convergence table, as markdown lines."""
    lines = ["| f | N | " + " | ".join(METHODS) + " | tail ratio |",
             "|---|---|" + "---|" * (len(METHODS) + 1)]
    for problem, N in BOUNDS:
        errors = " | ".join(f"{max_error(problem, N, m):.1e}" for m in METHODS)
        name = problem.replace("|", "\\|")
        lines.append(f"| {name} | {N} | {errors} | {tail_ratio(problem, N):.1e} |")
    return lines


if __name__ == "__main__":
    print("\n".join(table()))
