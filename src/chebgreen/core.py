"""Chebyshev-Gauss-Lobatto grids, the value carriers and the DCT-I.

Grids are indexed descending (``points[0] = 1``, ``points[N] = -1``) so that
index j corresponds to the angle j*pi/N.  The node/coefficient transforms
(``_node_to_coeff_values`` and its inverse) are built on an orthonormal,
self-inverse DCT-I; that normalization keeps round trips free of stray
scale factors.  See Trefethen, "Spectral Methods in MATLAB", for the grid
and weight background.
"""

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GreenMatrix",
    "NodeVector",
    "cgl_points",
    "dct1",
]


def _freeze(obj, name, ndim, degree=None):
    """Store the named field of the frozen dataclass obj as a read-only
    contiguous float64 array.

    Raises ValueError unless the array has ndim axes (degree + 1 entries
    along each when a grid degree is given) and holds only finite values.
    Complex values raise TypeError rather than lose their imaginary part in
    the cast.
    """
    where = f"{type(obj).__name__}.{name}"
    a = getattr(obj, name)
    _require_real(a, where)
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != ndim or (degree is not None and a.shape != (degree + 1,) * ndim):
        want = f"{ndim}-d" if degree is None else f"{degree + 1} entries per axis, {ndim}-d"
        raise ValueError(f"{where} needs {want}, got shape {a.shape}")
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


@dataclass(frozen=True)
class NodeVector:
    """Values of a function at all points of a degree-N CGL grid.

    ``values[j]`` is the sample at ``cgl_points(N)[j]``.  The grid degree is
    inferred from the length when not given explicitly.
    """

    values: np.ndarray
    grid_degree: int | None = None

    def __post_init__(self):
        _freeze(self, "values", ndim=1)
        n = self.values.size
        deg = _grid_degree(n - 1 if self.grid_degree is None else self.grid_degree)
        if n != deg + 1:
            raise ValueError(f"node vector needs grid_degree + 1 values, "
                             f"got {n} values for degree {deg}")
        object.__setattr__(self, "grid_degree", deg)


@dataclass(frozen=True)
class GreenMatrix:
    """Dense (N+1) x (N+1) discrete solution operator.

    entries[k][i] is the response at node k to the i-th Lagrange basis
    function on the right-hand side.  Rows 0 and N are identically zero and
    entries[k][i] == entries[N-k][N-i].
    """

    degree: int
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "degree", _grid_degree(self.degree))
        _freeze(self, "entries", ndim=2, degree=self.degree)


def _grid_degree(N, least=1):
    """N as an int; TypeError naming the value when it is not an integer
    (a float such as 4.0 names no grid, even when it is whole), then
    ValueError naming both when it is below least, the smallest degree the
    caller's operator exists at."""
    try:
        N = operator.index(N)
    except TypeError:
        raise TypeError(f"grid degree must be an integer, got {N!r}") from None
    if N < least:
        raise ValueError(f"grid degree must be >= {least}, got {N}")
    return N


def _basis_index(i, N):
    """i as an int in 0..N; TypeError for a fractional index, which names
    no basis function, ValueError when it is out of range."""
    i = operator.index(i)
    if not 0 <= i <= N:
        raise ValueError(f"basis index {i} out of range for degree {N}")
    return i


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
    size; ``oracle.dct1_naive`` is the direct cosine sum it is checked
    against.  Each row of a 2-d input transforms to the same bits as that
    row passed alone.

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


def _coeff_to_node_values(c):
    """Raw transform along the last axis: Chebyshev coefficients (length
    M+1) -> node values."""
    M = c.shape[-1] - 1
    w = np.array(c, dtype=np.float64)
    _scale_ends(w, 2.0)
    w *= np.sqrt(M / 2.0)
    return dct1(w)

