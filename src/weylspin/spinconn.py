"""Spinor connections of weight w, the Killing connection, and their curvatures.

Spinor fields are taken in the invariant spinor trivialization, so a connection
is three constant 2x2 matrices M_i with nabla_{e_i} psi = e_i(psi) + M_i psi.
The spin lift of the Weyl connection is

    A_i = 1/4 sum_{j,k} a[i,j,k] e_j e_k + w theta_i Id,
    a[i,j,k] = 1/2 (Gamma^k_ij - Gamma^j_ik),

validated by the Leibniz identity [A_i, v.] = (nabla_{e_i} v). rather than
assumed. The Killing connection is B_i = A_i(w=0) - beta e_i; its curvature
vanishes exactly on Gauduchon-Tod geometries, which is the engine behind the
2-dimensional solution space.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .clifford import E
from .geometry import curvature_package, density_derivative, normalized_residual, weyl_connection
from .tensors import kulkarni_nomizu

_ID2 = np.eye(2, dtype=complex)
_ID3 = np.eye(3)
_NU12 = np.einsum("iab,jbc->ijac", E, E)  # the rank-2 Clifford operator e_i e_j
_ALT_NU12 = _NU12 - np.einsum("ijab->jiab", _NU12)
_ALT_NU12.setflags(write=False)


@dataclass(frozen=True, eq=False)
class SpinConnection:
    matrices: np.ndarray  # (3,2,2) complex
    weight: float


@dataclass(frozen=True, eq=False)
class SpinCurvature:
    commutator: np.ndarray  # (3,3,2,2)
    formula: np.ndarray | None  # (3,3,2,2), weight 0 only
    mismatch: float | None


@dataclass(frozen=True, eq=False)
class KillingCurvature:
    curvature: np.ndarray  # (3,3,2,2)
    residual: float
    expansion_deviation: float


def spin_connection(g, weight=0.0):
    """Weight-w spinor connection matrices A_i for the Weyl structure."""
    gamma = weyl_connection(g)
    a = 0.5 * (gamma - np.swapaxes(gamma, 1, 2))
    mats = 0.25 * np.einsum("ijk,jab,kbc->iac", a, E, E)
    mats = mats + weight * g.theta[:, None, None] * _ID2
    return SpinConnection(matrices=mats, weight=float(weight))


@functools.lru_cache(maxsize=1)
def weight0_matrices(g):
    """Read-only matrices A_i of spin_connection(g, 0.0), built once per (immutable) geometry."""
    mats = spin_connection(g, 0.0).matrices
    mats.setflags(write=False)
    return mats


def commutator_curvature(mats, g):
    """R_ij = [M_i, M_j] - sum_k c^k_ij M_k for constant connection matrices."""
    comm = np.einsum("iab,jbc->ijac", mats, mats) - np.einsum("jab,ibc->ijac", mats, mats)
    return comm - np.einsum("ijk,kac->ijac", g.structure_constants, mats)


def spin_curvature(g, weight=0.0):
    """Spin curvature by commutator, with the closed-form cross-check at w = 0.

    The formula route reads 1/4 (Ric^N kn c) as a 2-form of endomorphisms,
    contracting the last two slots with Clifford factors. It only exists at
    weight 0; at any other weight formula and mismatch are None.
    """
    conn = spin_connection(g, weight)
    comm = commutator_curvature(conn.matrices, g)
    if weight != 0.0:
        return SpinCurvature(commutator=comm, formula=None, mismatch=None)
    pkg = curvature_package(g)
    kn = kulkarni_nomizu(pkg.ric_n, _ID3)
    formula = 0.25 * np.einsum("ijab,axy,byz->ijxz", kn, E, E)
    mismatch = float(np.max(np.abs(comm - formula)))
    return SpinCurvature(commutator=comm, formula=formula, mismatch=mismatch)


def killing_connection(g, beta):
    """Killing connection B_i = A_i(w=0) - beta e_i."""
    mats = weight0_matrices(g) - beta.value * E
    return SpinConnection(matrices=mats, weight=0.0)


def killing_curvature(g, beta):
    """Curvature of the Killing connection plus two derived diagnostics.

    residual            max entry of R^beta_ij = [B_i,B_j] - c^k_ij B_k
    expansion_deviation max entry of R^beta_ij minus the expansion
                        R^{S,0}_ij - (Alt (nabla beta) (x) nu)_ij
                        + beta^2 (Alt nu12)_ij,
                        an identity that holds for every geometry and beta
                        (it is how flatness reduces to the GT residuals).
    """
    base = weight0_matrices(g)
    curv = commutator_curvature(base - beta.value * E, g)  # B_i = A_i - beta e_i
    residual = float(np.max(np.abs(curv)))

    r_s0 = commutator_curvature(base, g)
    grad = density_derivative(g, beta)
    grad_nu = np.einsum("i,jab->ijab", grad, E)
    alt_grad_nu = grad_nu - np.einsum("ijab->jiab", grad_nu)
    expansion = r_s0 - alt_grad_nu + beta.value**2 * _ALT_NU12
    deviation = float(np.max(np.abs(curv - expansion)))
    return KillingCurvature(curvature=curv, residual=residual, expansion_deviation=deviation)


def flatness(g, beta):
    """Killing curvature residual over scale^2, normalized like the GT residuals."""
    return normalized_residual(killing_curvature(g, beta).residual, g, beta)
