"""The spinor connection, the Killing connection, and the Killing curvature.

Spinor fields are taken in the invariant spinor trivialization, so a connection
is three constant 2x2 matrices M_i with nabla_{e_i} psi = e_i(psi) + M_i psi.
The spin lift of the Weyl connection is

    A_i = 1/4 sum_{j,k} a[i,j,k] e_j e_k,
    a[i,j,k] = 1/2 (Gamma^k_ij - Gamma^j_ik),

validated by the Leibniz identity [A_i, v.] = (nabla_{e_i} v). rather than
assumed. The Killing connection is B_i = A_i - beta e_i; its curvature
vanishes exactly on Gauduchon-Tod geometries, which is the engine behind the
2-dimensional solution space. The commands read B as the 3x3 matrix b
(geometry.killing_coefficients) and its curvature as F = 2 cof(b) - N b
(geometry.curvature_coefficients), whose entry moduli geometry.flatness reads by
ENTRY_PAIRS; the spinor-matrix chain that these sum by hand is read by the
benchmark and the tests. The chain computes with arrays, so this module imports
numpy; flatness, re-exported here, lives in geometry, which does not, so that
analyze runs without numpy.
"""

from collections import namedtuple

import numpy as np

from .clifford import E
from .geometry import flatness, weyl_connection  # flatness is re-exported from here

# R^beta (3, 3, 2, 2) and its max entry modulus
KillingCurvature = namedtuple("KillingCurvature", "curvature residual")


def spin_connection(g):
    """Spinor connection matrices A_i (3, 2, 2) for the Weyl structure."""
    # a / 4 = gamma / 8 - gamma^T / 8 before the sums keeps them within max|gamma| (exact)
    eighth = 0.125 * weyl_connection(g)
    return np.einsum("ijk,jab,kbc->iac", eighth - np.swapaxes(eighth, 1, 2), E, E)


def commutator_curvature(mats, g):
    """R_ij = [M_i, M_j] - sum_k c^k_ij M_k for constant connection matrices."""
    comm = np.einsum("iab,jbc->ijac", mats, mats)
    comm -= np.einsum("jab,ibc->ijac", mats, mats)
    return comm - np.einsum("ijk,kac->ijac", g.structure_constants, mats)


def killing_connection(g, beta):
    """Killing connection matrices B_i = A_i - beta e_i (3, 2, 2)."""
    return spin_connection(g) - beta.value * E


def killing_curvature(g, beta):
    """Curvature R^beta_ij = [B_i,B_j] - c^k_ij B_k (3, 3, 2, 2), B_i = A_i - beta e_i, and its max entry."""
    curv = commutator_curvature(killing_connection(g, beta), g)
    return KillingCurvature(curvature=curv, residual=float(np.max(np.abs(curv))))
