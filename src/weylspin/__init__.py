"""Verification and construction engine for real Killing spinors on 3-dimensional
Weyl manifolds.

The package certifies the algebraic identities behind the equivalence between
weight-0 real Killing spinors and Gauduchon-Tod geometry in dimension 3, checks
the Gauduchon-Tod conditions on homogeneous Weyl geometries, proves flatness of
the Killing connection, and constructs the 2-dimensional Killing spinor space by
parallel transport.
"""

__version__ = "0.31.0"

from . import clifford, errors, geometry, identities, killing, spinconn, tensors

__all__ = [
    "__version__",
    "clifford",
    "errors",
    "geometry",
    "identities",
    "killing",
    "spinconn",
    "tensors",
]
