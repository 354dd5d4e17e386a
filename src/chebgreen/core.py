"""Chebyshev-Gauss-Lobatto grids, the value carriers, the DCT-I, and the
memo that keeps set-up depending only on the grid degree between calls.

Grids are indexed descending (``points[0] = 1``, ``points[N] = -1``) so that
index j corresponds to the angle j*pi/N.  The node-to-coefficient
transform (``_node_to_coeff_values``) is built on an orthonormal,
self-inverse DCT-I; that normalization keeps round trips free of stray
scale factors.  See Trefethen, "Spectral Methods in MATLAB", for the grid
and weight background.
"""

import functools
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GreenMatrix",
    "NodeVector",
    "cgl_points",
    "dct1",
]


def _freeze(obj, name, ndim):
    """Store the named field of the frozen dataclass obj as a read-only
    contiguous float64 array.

    Raises ValueError unless the array has ndim axes of one common length,
    whose grid degree (that length minus one) passes _grid_degree, and
    holds only finite values.  Complex values raise TypeError rather than
    lose their imaginary part in the cast.
    """
    where = f"{type(obj).__name__}.{name}"
    a = getattr(obj, name)
    _require_real(a, where)
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != ndim or len(set(a.shape)) != 1:
        raise ValueError(f"{where} needs {ndim}-d, all axes of one length, got shape {a.shape}")
    _grid_degree(a.shape[0] - 1)
    _require_finite(a, where)
    a.flags.writeable = False
    object.__setattr__(obj, name, a)


def _require_finite(a, what):
    """Raise ValueError naming what unless every entry of a is finite."""
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite; got NaN or infinite values")


def _require_real(a, what):
    """Raise TypeError naming what when a holds complex values, which a
    float64 cast would truncate to their real parts."""
    if np.iscomplexobj(a):
        raise TypeError(f"{what} must be real; got complex values")


def _require_type(v, cls, fn):
    """Raise TypeError naming the function fn and both types unless v is a
    cls: a bare array carries no grid meaning."""
    if not isinstance(v, cls):
        raise TypeError(f"{fn} expects a {cls.__name__}, got {type(v).__name__}")


@dataclass(frozen=True, eq=False)
class NodeVector:
    """Values of a function at all points of a degree-N CGL grid.

    ``values[j]`` is the sample at ``cgl_points(N)[j]``; the N + 1 values
    state the grid degree N, which ``grid_degree`` reads off their count.
    """

    values: np.ndarray

    def __post_init__(self):
        _freeze(self, "values", ndim=1)

    @property
    def grid_degree(self):
        return self.values.size - 1


@dataclass(frozen=True, eq=False)
class GreenMatrix:
    """Dense (N+1) x (N+1) discrete solution operator; its side states N.

    entries[k][i] is the response at node k to the i-th Lagrange basis
    function on the right-hand side.  Rows 0 and N are identically zero and
    entries[k][i] == entries[N-k][N-i].
    """

    entries: np.ndarray

    def __post_init__(self):
        _freeze(self, "entries", ndim=2)


def _grid_degree(N, least=1):
    """N as an int: TypeError naming the value when it is not an integer (a
    float such as 4.0 names no grid, even when it is whole), then ValueError
    naming both when it is below least, the smallest degree the caller's
    operator exists at."""
    # the types operator.index takes, less bool (it would read True as 1)
    if isinstance(N, bool) or not hasattr(type(N), "__index__"):
        raise TypeError(f"grid degree must be an integer, got {N!r}")
    N = operator.index(N)
    if N < least:
        raise ValueError(f"grid degree must be >= {least}, got {N}")
    return N


# bytes of degree-only set-up the memo keeps.  The stripped solve's factored
# parity blocks take 4 MiB at N = 1024 and 16 MiB at N = 2048, and 32 MiB
# holds them up to N = 2897; the one set-up of G and the dense solve, 13
# (N+1) doubles, up to N = 322389.  A cold stripped solve folds the blocks in
# O(N^2) and factors them in O(N^3), 2.6 + 4.1 ms at N = 1024 and 11 + 22 ms
# at N = 2048, where a warm one takes 0.22 and 0.73 ms (one BLAS thread,
# 2-vCPU Xeon).  The time a kept byte saves grows with N, so the budget is a
# cap on memory, not a trade-off: above N = 2897 every stripped solve pays
# the O(N^3) build
_MEMO_BUDGET = 32 << 20


def _freeze_tree(value, owners):
    # make every array in a tree of tuples of arrays read-only, and record
    # in owners the bytes of each buffer they view, once per buffer: a
    # sliding window view's nbytes counts every window, its base the table
    if isinstance(value, tuple):
        for v in value:
            _freeze_tree(v, owners)
        return
    value.flags.writeable = False
    while value.base is not None:
        value = value.base
    owners[id(value)] = value.nbytes


class _Memo:
    """Results of degree-only set-ups kept by (builder, N) within a byte
    budget, the least recently used dropped first.

    Used as a decorator on a builder of one argument N.  Every array of the
    result (a tree of tuples of arrays) is made read-only, and later calls
    at that N return the same objects, so cold and warm calls give the same
    bits.  A result larger than the budget is returned and not kept, and a
    build that raises keeps nothing.  Builds run outside the lock, so two
    threads may both build one N; the first result is kept.
    """

    def __init__(self, budget):
        self.budget = budget
        self.nbytes = 0
        self._entries = OrderedDict()  # (builder, N) -> (result, bytes)
        self._lock = threading.Lock()

    def clear(self):
        with self._lock:
            self._entries.clear()
            self.nbytes = 0

    def __call__(self, build):
        @functools.wraps(build)
        def memoized(N):
            key = (build, N)
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    return entry[0]
            out = build(N)
            owners = {}
            _freeze_tree(out, owners)
            size = sum(owners.values())
            with self._lock:
                if size <= self.budget and key not in self._entries:
                    while self.nbytes + size > self.budget:
                        self.nbytes -= self._entries.popitem(last=False)[1][1]
                    self._entries[key] = (out, size)
                    self.nbytes += size
            return out
        return memoized


_degree_memo = _Memo(_MEMO_BUDGET)


def cgl_points(N):
    """Chebyshev-Gauss-Lobatto points cos(j*pi/N), j = 0..N, descending.

    Only the first half is taken from the cosine; the rest mirrors it, so
    points[N-j] == -points[j] holds exactly and a degree-2N grid interlaces
    the degree-N grid bit-for-bit at even indices.
    """
    N = _grid_degree(N)
    m = N // 2
    j = np.arange(m + 1)
    head = np.cos(np.pi * j / N)
    x = np.empty(N + 1)
    x[: m + 1] = head
    x[N - j] = -head
    if N % 2 == 0:
        x[m] = 0.0
    return x


def _cgl_weight_signs(N):
    # CGL barycentric weights without their common scale 2^(N-1)/N, which
    # cancels wherever weights enter as ratios: (-1)^j, endpoints halved
    w = np.where(np.arange(N + 1) % 2 == 0, 1.0, -1.0)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def dct1(v):
    """Orthonormal DCT-I of a real vector; its own inverse.

    Parameters
    ----------
    v : sequence of n >= 2 reals, or a 2-d array of rows of n >= 2 reals

    Returns
    -------
    ndarray of the same shape
        out[s] = sqrt(2/(n-1)) * (v[0]/2 + sum_{r=1}^{n-2} v[r] cos(pi r s/(n-1))
        + (-1)^s v[n-1]/2), applied to each row of a 2-d input.

    Notes
    -----
    Runs as a real FFT of the even extension of v (length 2(n-1)) at every
    size; ``dct1_naive`` in the tests' ``references`` module is the direct
    cosine sum it is checked against.  Each row of a 2-d input transforms
    to the same bits as that row passed alone.

    NaN and infinity are not checked and pass through: the matrix-free
    apply calls this on the values of an already checked ``NodeVector``.
    Complex input raises TypeError.
    """
    _require_real(v, "dct1 input")
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] < 2:
        raise ValueError("dct1 needs a 1-d vector or a 2-d array of rows "
                         "with at least two entries")
    n = v.shape[-1]
    # even extension [v_0 .. v_{n-1}, v_{n-2} .. v_1]: the rfft of it is a
    # pure cosine sum whose first n real parts are the (unnormalized) DCT-I
    ext = np.concatenate([v, v[..., -2:0:-1]], axis=-1)
    return np.fft.rfft(ext, axis=-1).real / np.sqrt(2.0 * (n - 1))


def _scale_ends(a, s):
    # scale the first and last entry of a vector, or of every row of a 2-d
    # array, in place; a.T puts the last axis first, so a 1-d input takes
    # scalar indexing (a[..., 0] would cost several microseconds a call)
    t = a.T
    t[0] *= s
    t[-1] *= s


def _node_to_coeff_values(u):
    """Raw transform along the last axis: node values (length N+1) ->
    Chebyshev coefficients."""
    N = u.shape[-1] - 1
    a = dct1(u) * np.sqrt(2.0 / N)
    _scale_ends(a, 0.5)
    return a

