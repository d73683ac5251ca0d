"""The spinor connection, the Killing connection, and the Killing curvature.

Spinor fields are taken in the invariant spinor trivialization, so a connection
is three constant 2x2 matrices M_i with nabla_{e_i} psi = e_i(psi) + M_i psi.
The spin lift of the Weyl connection is

    A_i = 1/4 sum_{j,k} a[i,j,k] e_j e_k,
    a[i,j,k] = 1/2 (Gamma^k_ij - Gamma^j_ik),

validated by the Leibniz identity [A_i, v.] = (nabla_{e_i} v). rather than
assumed. The Killing connection is B_i = A_i - beta e_i; its curvature
vanishes exactly on Gauduchon-Tod geometries, which is the engine behind the
2-dimensional solution space; killing reads B in closed form (killing_coefficients).
"""

from dataclasses import dataclass

import numpy as np

from .clifford import E
from .geometry import form_rows, prescale, weyl_connection


@dataclass(frozen=True, eq=False)
class KillingCurvature:
    curvature: np.ndarray  # (3,3,2,2)
    residual: float


def spin_connection(g):
    """Spinor connection matrices A_i (3, 2, 2) for the Weyl structure."""
    # a / 4 = gamma / 8 - gamma^T / 8 before the sums keeps them within max|gamma| (exact)
    eighth = 0.125 * weyl_connection(g)
    return np.einsum("...ijk,jab,kbc->...iac", eighth - np.swapaxes(eighth, -2, -1), E, E)


def commutator_curvature(mats, g):
    """R_ij = [M_i, M_j] - sum_k c^k_ij M_k for constant connection matrices."""
    comm = np.einsum("...iab,...jbc->...ijac", mats, mats)
    comm -= np.einsum("...jab,...ibc->...ijac", mats, mats)
    return comm - np.einsum("...ijk,...kac->...ijac", g.structure_constants, mats)


def killing_connection(g, beta):
    """Killing connection matrices B_i = A_i - beta e_i, (..., 3, 2, 2) for a batch of geometries."""
    return spin_connection(g) - np.multiply.outer(beta.value, E)


def killing_coefficients(x):
    """b (3, 3) with B_i = sum_k b[i, k] q_k, q_k = -e_k, in closed form at x = (N, theta, beta) (13,).

    b = (tr N / 4 + beta) Id - N^T / 2 - [theta]x / 2, [theta]x w = theta x w, is the
    chain Gamma -> a -> A - beta E summed by hand (docs/CONVENTIONS.md), on Python
    floats; the diagonal, (N_jj + N_kk - N_ii) / 4 + beta, rounds like the chain.
    """
    n11, n12, n13, n21, n22, n23, n31, n32, n33, t1, t2, t3, beta = map(float, x)
    return np.array([[0.25 * (n22 + n33 - n11) + beta, -0.5 * (n21 - t3), -0.5 * (n31 + t2)],
                     [-0.5 * (n12 + t3), 0.25 * (n33 + n11 - n22) + beta, -0.5 * (n32 - t1)],
                     [-0.5 * (n13 - t2), -0.5 * (n23 + t1), 0.25 * (n11 + n22 - n33) + beta]])


def killing_curvature(g, beta):
    """Curvature R^beta_ij = [B_i,B_j] - c^k_ij B_k and its max entry, the residual.

    B_i = A_i - beta e_i. A batch of geometries gives a batch of curvatures,
    and the residual is the max entry over all of them.
    """
    curv = commutator_curvature(spin_connection(g) - np.multiply.outer(beta.value, E), g)
    return KillingCurvature(curvature=curv, residual=float(np.max(np.abs(curv))))


def flatness(g, beta):
    """Killing curvature residual over scale^2, normalized like the GT residuals.

    Read off geometry.form_rows, the evaluation analyze reads too: the
    moduli of the 36 entries of R^beta from their real parts (rows 13-48)
    and imaginary parts (rows 49-84), on the prescaled coordinates.
    """
    rows = form_rows(g, beta)
    _, m = prescale(g, beta)
    return np.hypot(rows[13:49], rows[49:]).max().item() / (m * m)
