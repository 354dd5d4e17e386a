"""Pseudospectral Green matrices for the 1-d Poisson problem.

Solves u'' = f on [-1, 1] with zero Dirichlet data on Chebyshev-Gauss-
Lobatto grids, three interchangeable ways: an explicitly assembled Green
matrix, a matrix-free transform pipeline, and a stripped collocation
system.  Grids are stored in the conventional descending order.  The slow
exact references are in ``chebgreen.oracle``, which is not re-exported.
"""

from . import core, green, operators, quadrature
from .core import *
from .green import *
from .operators import *
from .quadrature import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__,
    *green.__all__,
    *operators.__all__,
    *quadrature.__all__,
]
