"""Chebyshev-Gauss-Lobatto grids and the node/coefficient transform pair.

Grids are indexed descending (``points[0] = 1``, ``points[N] = -1``) so that
index j corresponds to the angle j*pi/N.  The transform pair
:func:`node_to_coeffs` / :func:`coeffs_to_nodes` is built on an orthonormal,
self-inverse DCT-I; that normalization keeps round trips free of stray
scale factors.  See Trefethen, "Spectral Methods in MATLAB", for the grid
and weight background.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChebGrid",
    "NodeVector",
    "CoeffVector",
    "cheb_grid",
    "cgl_points",
    "barycentric_weights_cgl",
    "dct1",
    "node_to_coeffs",
    "coeffs_to_nodes",
    "eval_chebyshev_at_cgl",
]


def _freeze(a):
    """Return `a` as a read-only contiguous float64 array."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class NodeVector:
    """Values of a function at all points of a degree-N CGL grid.

    ``values[j]`` is the sample at ``cgl_points(N)[j]``.  The grid degree is
    inferred from the length when not given explicitly.
    """

    values: np.ndarray
    grid_degree: int | None = None

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=np.float64))
        deg = self.grid_degree if self.grid_degree is not None else vals.size - 1
        if vals.ndim != 1 or deg < 1 or vals.size != deg + 1:
            raise ValueError(
                "node vector needs grid_degree + 1 values on a grid of degree >= 1, "
                f"got {vals.size} values for degree {deg}"
            )
        object.__setattr__(self, "values", _freeze(vals))
        object.__setattr__(self, "grid_degree", int(deg))


@dataclass(frozen=True)
class CoeffVector:
    """Chebyshev coefficients: ``values[j]`` multiplies T_j.

    The length is arbitrary (>= 1) and carries no grid association; trailing
    zeros are meaningful padding for the integration rules.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=np.float64))
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("coefficient vector must be 1-d with at least one entry")
        object.__setattr__(self, "values", _freeze(vals))

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class ChebGrid:
    """Degree-N CGL grid with its closed-form barycentric weights."""

    degree: int
    points: np.ndarray
    bary_weights: np.ndarray

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("grid degree must be >= 1")
        pts = _freeze(self.points)
        w = _freeze(self.bary_weights)
        if pts.shape != (self.degree + 1,) or w.shape != (self.degree + 1,):
            raise ValueError("points and weights must both have degree + 1 entries")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "bary_weights", w)


def cheb_grid(N):
    """Construct the degree-N ChebGrid."""
    return ChebGrid(N, cgl_points(N), barycentric_weights_cgl(N))


def cgl_points(N):
    """Chebyshev-Gauss-Lobatto points cos(j*pi/N), j = 0..N, descending.

    Only the first half is taken from the cosine; the rest mirrors it, so
    points[N-j] == -points[j] holds exactly and a degree-2N grid interlaces
    the degree-N grid bit-for-bit at even indices.
    """
    if N < 1:
        raise ValueError("grid degree must be >= 1 (a single point cannot carry a grid)")
    m = N // 2
    j = np.arange(m + 1)
    head = np.cos(np.pi * j / N)
    x = np.empty(N + 1)
    x[: m + 1] = head
    x[N - j] = -head
    if N % 2 == 0:
        x[m] = 0.0
    return x


def barycentric_weights_cgl(N):
    """Closed-form barycentric weights of the CGL grid.

    w[j] = (-1)^j * 2^(N-1)/N with the two endpoint entries halved.  The
    common magnitude overflows doubles past N ~ 1075; every consumer in this
    package uses weight ratios only, where the scale cancels.
    """
    if N < 1:
        raise ValueError("grid degree must be >= 1")
    w = np.where(np.arange(N + 1) % 2 == 0, 1.0, -1.0)
    w[0] *= 0.5
    w[-1] *= 0.5
    with np.errstate(over="ignore"):
        scale = np.float64(2.0) ** (N - 1) / N
    return w * scale


def dct1(v):
    """Orthonormal DCT-I of a real vector; its own inverse.

    Parameters
    ----------
    v : sequence of n >= 2 reals, or a 2-d array of rows of n >= 4 reals

    Returns
    -------
    ndarray of the same shape
        out[s] = sqrt(2/(n-1)) * (v[0]/2 + sum_{r=1}^{n-2} v[r] cos(pi r s/(n-1))
        + (-1)^s v[n-1]/2), applied to each row of a 2-d input.

    Notes
    -----
    For n >= 4 this runs as a real FFT of the even extension of v (length
    2(n-1)); below that the direct cosine sum is used.  Both paths compute
    the same map; the direct sum also serves as the cross-check oracle
    (see ``oracle.dct1_naive``).  Rows of a 2-d input go through the FFT
    path only, which is why they need n >= 4; each row transforms to the
    same bits as that row passed alone.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] < (2 if v.ndim == 1 else 4):
        raise ValueError("dct1 needs a 1-d vector with at least two entries "
                         "or a 2-d array of rows with at least four")
    n = v.shape[-1]
    if n < 4:
        return _dct1_direct(v)
    # even extension [v_0 .. v_{n-1}, v_{n-2} .. v_1]: the rfft of it is a
    # pure cosine sum whose first n real parts are the (unnormalized) DCT-I
    ext = np.concatenate([v, v[..., -2:0:-1]], axis=-1)
    return np.fft.rfft(ext, axis=-1).real / np.sqrt(2.0 * (n - 1))


def _dct1_direct(v):
    # O(n^2) cosine-sum evaluation; endpoint samples carry weight 1/2
    n = v.size
    w = v.copy()
    w[0] *= 0.5
    w[-1] *= 0.5
    jk = np.outer(np.arange(n), np.arange(n))
    return np.sqrt(2.0 / (n - 1)) * (np.cos(np.pi * jk / (n - 1)) @ w)


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


def node_to_coeffs(u):
    """Chebyshev coefficients of the degree-N interpolant through u.

    Exact (to round-off) for node values of any polynomial of degree <= N:
    the returned coefficients reproduce u under :func:`coeffs_to_nodes`.
    """
    if u.grid_degree < 1:
        raise ValueError("transform needs a grid of degree >= 1")
    return CoeffVector(_node_to_coeff_values(u.values))


def coeffs_to_nodes(uhat):
    """Evaluate sum_j uhat[j] T_j at the CGL grid of degree len(uhat)-1."""
    vals = uhat.values
    if vals.size < 2:
        raise ValueError("need at least two coefficients (target grid degree >= 1)")
    return NodeVector(_coeff_to_node_values(vals))


def eval_chebyshev_at_cgl(k, M):
    """Values of T_k at the degree-M grid, i.e. cos(k*j*pi/M) for j = 0..M.

    Computed by transforming the k-th unit coefficient vector.
    """
    if M < 1:
        raise ValueError("grid degree must be >= 1")
    if not 0 <= k <= M:
        raise ValueError(f"Chebyshev index {k} out of range for a degree-{M} grid")
    e = np.zeros(M + 1)
    e[k] = 1.0
    return _coeff_to_node_values(e)
