"""Verification and construction engine for real Killing spinors on 3-dimensional
Weyl manifolds.

The package certifies the algebraic identities behind the equivalence between
weight-0 real Killing spinors and Gauduchon-Tod geometry in dimension 3, checks
the Gauduchon-Tod conditions on homogeneous Weyl geometries, proves flatness of
the Killing connection, and constructs the 2-dimensional Killing spinor space by
parallel transport.

Submodules are imported on first access (PEP 562), so `import weylspin` loads
none of them, and a command that reads no array loads no numpy.
"""

import importlib

__version__ = "0.33.0"

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


def __getattr__(name):
    """Import the submodule `name` the first time it is read as an attribute."""
    if name in __all__ and name != "__version__":
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
