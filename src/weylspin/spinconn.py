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
(killing_coefficients) and its curvature as 2 cof(b) - N b (curvature_coefficients,
with geometry.cofactor), whose entry moduli flatness reads by clifford.ENTRY_PAIRS;
the spinor-matrix chain that these sum by hand is read by the benchmark and the tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from .clifford import E, ENTRY_PAIRS
from .geometry import cofactor, prescaled, weyl_connection

# the F_k that meet in each entry of sum_k F_k q_k: ENTRY_PAIRS less Id, on F's indices k - 1
(_FIRST, _SECOND), (_ALONE,) = sorted({tuple(k - 1 for k in pair if k) for pair in ENTRY_PAIRS})


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
    """b (3 lists of 3 floats): B_i = sum_k b[i][k] q_k, q_k = -e_k, in closed form at x = (N, theta, beta).

    b = (tr N / 4 + beta) Id - N^T / 2 - [theta]x / 2, [theta]x w = theta x w, is the
    chain Gamma -> a -> A - beta E summed by hand (docs/CONVENTIONS.md), on Python
    floats; the diagonal, (N_jj + N_kk - N_ii) / 4 + beta, rounds like the chain.
    """
    n11, n12, n13, n21, n22, n23, n31, n32, n33, t1, t2, t3, beta = map(float, x)
    return [[0.25 * (n22 + n33 - n11) + beta, -0.5 * (n21 - t3), -0.5 * (n31 + t2)],
            [-0.5 * (n12 + t3), 0.25 * (n33 + n11 - n22) + beta, -0.5 * (n32 - t1)],
            [-0.5 * (n13 - t2), -0.5 * (n23 + t1), 0.25 * (n11 + n22 - n33) + beta]]


def curvature_coefficients(x):
    """F = 2 cof(b) - N b (3 lists of 3 floats): R^beta_(l+1, l+2) = sum_k F[l, k] q_k (indices mod 3).

    b = killing_coefficients(x), cof = geometry.cofactor, [q_k, q_l] = 2 eps_klm q_m and c^k_(l+1, l+2)
    = N[l, k] at x = (N, theta, beta) (13,); R^beta_ji = -R^beta_ij and R^beta_ii = 0 are the rest.
    """
    b, N = killing_coefficients(x), (x[0:3], x[3:6], x[6:9])
    return [[2.0 * c - (n0 * b0 + n1 * b1 + n2 * b2) for c, b0, b1, b2 in zip(cof_row, *b)]
            for cof_row, (n0, n1, n2) in zip(cofactor(b), N)]


def killing_curvature(g, beta):
    """Curvature R^beta_ij = [B_i,B_j] - c^k_ij B_k and its max entry, the residual.

    B_i = A_i - beta e_i. A batch of geometries gives a batch of curvatures,
    and the residual is the max entry over all of them.
    """
    curv = commutator_curvature(killing_connection(g, beta), g)
    return KillingCurvature(curvature=curv, residual=float(np.max(np.abs(curv))))


def flatness(g, beta):
    """Killing curvature residual over scale^2, normalized like the GT residuals.

    The largest entry modulus of R^beta by curvature_coefficients at x over
    m^2, (x, e, m) = geometry.prescaled(g, beta): finite at every scale.
    """
    x, _, m = prescaled(g, beta)
    F = curvature_coefficients(x)
    return max(max(math.hypot(row[_FIRST], row[_SECOND]), abs(row[_ALONE])) for row in F) / (m * m)
