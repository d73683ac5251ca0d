"""Irreducible representation of the 3-dimensional Clifford algebra on C^2.

The generators are fixed once and for all as e_k = i * sigma_k (Pauli matrices),
which satisfies both defining relations exactly, with entries in {0, +-1, +-i}:

    e_i e_j + e_j e_i = -2 delta_ij Id
    e_i e_j = -sum_k eps_ijk e_k   (i != j)

The quaternionic structure J psi = e_2 conj(psi) is antilinear, squares to -Id,
and commutes with Clifford multiplication by real frame vectors. Its existence
is what forces the solution space of the Killing equation to be even-dimensional.
"""

import numpy as np

from .errors import ShapeError

# e_k = i * sigma_k
E = np.array(
    [
        [[0.0, 1j], [1j, 0.0]],
        [[0.0, 1.0], [-1.0, 0.0]],
        [[1j, 0.0], [0.0, -1j]],
    ],
    dtype=complex,
)
E.setflags(write=False)

EPS = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS[_i, _j, _k] = 1.0
    EPS[_j, _i, _k] = -1.0
EPS.setflags(write=False)


def clifford_sum(x):
    """sum_a e_a x[a] for a sequence of three arrays with a trailing spinor axis.

    Each e_a has one unit entry per row, so e_a x[a] is exact, and the three
    terms are added in the order a = 1, 2, 3: every output entry is rounded the
    same way whatever the shape of x, so a batch row equals its one-trial value.
    Terms are added in place, one at a time, so at most two are held at once.
    """
    out = np.einsum("st,...t->...s", E[0], x[0])
    for a in (1, 2):
        out += np.einsum("st,...t->...s", E[a], x[a])
    return out


def act(v, psi, batch=0):
    """Clifford multiplication (sum_k v_k e_k) psi for a real frame vector v.

    Real coefficients only; applying the same v twice gives -||v||^2 psi. With
    `batch` leading axes, v has shape B + (3,) and psi shape B + (..., 2), and
    row b of the result is act(v[b], psi[b]).
    """
    v = np.asarray(v, dtype=float)
    if v.shape[batch:] != (3,):
        raise ShapeError(f"frame vector must have shape B + (3,), got {v.shape}")
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim <= batch or psi.shape[-1] != 2:
        raise ShapeError(f"spinor values need a trailing axis of length 2, got {psi.shape}")
    if psi.shape[:batch] != v.shape[:batch]:
        raise ShapeError(f"batch axes differ: {v.shape[:batch]} and {psi.shape[:batch]}")
    v = v.reshape(v.shape[:batch] + (1,) * (psi.ndim - batch) + (3,))
    return clifford_sum([v[..., k] * psi for k in range(3)])


def vector_matrix(v):
    """The 2x2 matrix of Clifford multiplication by the real frame vector v."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ShapeError(f"frame vector must have shape (3,), got {v.shape}")
    return np.einsum("k,kst->st", v, E)


def j_structure(psi):
    """Quaternionic structure J psi = e_2 conj(psi).

    Antilinear, J^2 = -Id, commutes with Clifford multiplication by real
    vectors, preserves the norm. For psi != 0 the pair (psi, J psi) is a
    C-basis of the spinor space: det[psi, J psi] = -||psi||^2 != 0.
    Leading axes, batch axes included, pass through: J acts on the trailing
    spinor axis of each row.
    """
    psi = np.asarray(psi, dtype=complex)
    return np.einsum("st,...t->...s", E[1], np.conj(psi))
